package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"regexp"
	"strings"
	"time"
)

// layerRule charges a stack frame whose function name matches re to a
// layer.
type layerRule struct {
	layer string
	re    *regexp.Regexp
}

func rule(layer, re string) layerRule { return layerRule{layer, regexp.MustCompile(re)} }

// runtimeRules name the Go runtime's own work. Any runtime or syscall
// frame they do not name matches no rule, so its time goes to the layer
// of the code that called it.
var runtimeRules = []layerRule{
	rule("gc", `^runtime\.(_GC$|gcBgMarkWorker|gcAssistAlloc|gcDrain|gcMark|gcStart|gcSweep|markroot|scanobject|scanblock|scanstack|scanframeworker|greyobject|bgsweep|bgscavenge|sweepone|wbBufFlush|bulkBarrierPreWrite|\(\*gcWork\)|\(\*sweepLocked\)|\(\*mspan\)\.(sweep|typePointers))`),
	rule("alloc", `^runtime\.(mallocgc|newobject|newarray|makeslice|makemap|growslice|rawstring|rawbyteslice|rawruneslice|slicebytetostring|stringtoslicebyte|concatstring|convT)`),
	rule("sched", `^runtime\.(schedule|findRunnable|park_m|goexit0|gosched_m|goschedImpl|stopm|startm|wakep|handoffp|stealWork|sysmon|mstart|exitsyscall0|netpoll|checkTimers|injectglist|resetspinning)`),
}

// daemonRules charge the daemons' stacks to layers. A stack goes to the
// innermost frame that matches any rule, and that frame to the first rule
// it matches; a stack no rule matches is "other". Middleware closures are
// named after the function that built them, as in
// wire.NewGSPServer.(*authenticator).middleware.func3, so their rules
// match the receiver anywhere in the name.
var daemonRules = append([]layerRule{
	rule("auth", `^poiagg/internal/wire\.(.*\(\*authenticator\)|\(\*nonceCache\)|\(\*Keyring\)|computeSig|canonicalString|SignRequest|parseAuthHeader|validNonce|validPrincipal|newNonce)`),
	rule("admission", `^poiagg/internal/wire\..*\(\*admission\)`),
	rule("respcache", `^poiagg/internal/wire\.(\(\*encCache\)|\(\*encShard\)|encKey|encMix64|encodeJSON|writeRaw|writeSegments)`),
	rule("peer_client", `^poiagg/internal/wire\.(\(\*clientCore\)|\(\*GSPClient\)|\(\*LBSClient\)|decodeReply|drainClose|readErrBody|retryAfterOf|locationParams)`),
	rule("log", `^(log\.|poiagg/internal/wire\.\(\*(GSPServer|ClusterGateway)\)\.logRequest)`),
	rule("batch", `^poiagg/internal/(gsp\.(\(\*Service\)\.(Freq|Query)Batch|fanOut)|wire\.(\(\*GSPServer\)\.(handle(Freq|Query)Batch|freqBatchEncoded|queryBatchEncoded|splitBatch|decodeBatch|validateItem|admitBatch)|decodeBatchRequest|validateBatchItem))`),
	rule("gateway", `^poiagg/internal/(cluster\.|wire\.(\(\*ClusterGateway\)|\(\*peerTable\)|\(\*clusterPeer\)|shardItemError))`),
	rule("stream", `^poiagg/internal/(stream\.|wire\.\(\*LBSServer\)\.(handleIngest|handleStreamReleases|ingestPrincipal))`),
	rule("audit", `^poiagg/internal/(attack\.|wire\.RegionAuditor)`),
	rule("budget", `^poiagg/internal/(budget\.|wire\.budgetStateOf)`),
	rule("defense", `^poiagg/internal/(defense|dp|cloak)\.`),
	rule("lbs", `^poiagg/internal/wire\.\(\*LBSServer\)`),
	rule("index", `^poiagg/internal/index\.`),
	rule("gsp", `^poiagg/internal/gsp\.`),
	rule("obs", `^poiagg/internal/obs\.`),
	rule("json", `^encoding/json\.`),
	// The rest of the wire package is HTTP handler glue: routing, query
	// parsing and response writing.
	rule("http", `^(net/http\.|net/textproto\.|net/url\.|mime|poiagg/internal/wire\.)`),
	rule("net", `^net\.`),
}, runtimeRules...)

// Layers reported per daemon: those its code can reach.
var daemonLayers = map[string][]string{
	"gspd":  {"auth", "admission", "respcache", "gsp", "index", "batch", "obs", "log", "json", "http", "net", "alloc", "gc", "sched", "other"},
	"gspgw": {"auth", "admission", "batch", "gateway", "peer_client", "obs", "log", "json", "http", "net", "alloc", "gc", "sched", "other"},
	"lbsd":  {"auth", "admission", "lbs", "audit", "budget", "stream", "defense", "gsp", "index", "obs", "log", "json", "http", "net", "alloc", "gc", "sched", "other"},
}

// stackSample is one distinct stack of a CPU profile with its CPU time.
type stackSample struct {
	cpu time.Duration
	// frames are function names, innermost first.
	frames []string
}

// parseTraces reads the output of `go tool pprof -traces`: a header, then
// blocks separated by "-----------+---" lines, each starting with the
// stack's CPU time before its innermost frame.
func parseTraces(r io.Reader) ([]stackSample, error) {
	var out []stackSample
	var cur *stackSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			out = append(out, stackSample{})
			cur = &out[len(out)-1]
			continue
		}
		if cur == nil || strings.TrimSpace(line) == "" {
			continue
		}
		frame := strings.TrimSpace(line)
		if len(cur.frames) == 0 && cur.cpu == 0 {
			val, rest, ok := strings.Cut(frame, " ")
			if !ok {
				return nil, fmt.Errorf("pprof traces: no frame after value in %q", line)
			}
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			cur.cpu = d
			frame = strings.TrimSpace(rest)
		}
		cur.frames = append(cur.frames, strings.TrimSuffix(frame, " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The last separator closes the final block.
	for len(out) > 0 && len(out[len(out)-1].frames) == 0 {
		out = out[:len(out)-1]
	}
	return out, nil
}

// layerOf returns the layer of a stack: that of the innermost frame a rule
// matches, the first matching rule deciding; "other" if none does.
func layerOf(frames []string, rules []layerRule) string {
	for _, f := range frames {
		for _, r := range rules {
			if r.re.MatchString(f) {
				return r.layer
			}
		}
	}
	return "other"
}

// layerTime is the CPU time charged to one layer.
type layerTime struct {
	dur     time.Duration
	samples int
}

// layerSplit maps layers to their CPU time.
type layerSplit map[string]layerTime

// total is the CPU time of every layer together.
func (s layerSplit) total() time.Duration {
	var t time.Duration
	for _, v := range s {
		t += v.dur
	}
	return t
}

func (s layerSplit) add(o layerSplit) {
	for k, v := range o {
		t := s[k]
		t.dur += v.dur
		t.samples += v.samples
		s[k] = t
	}
}

// profilePeriod is the CPU profiler's sampling period (100 Hz).
const profilePeriod = 10 * time.Millisecond

// attribute charges every stack to exactly one layer.
func attribute(stacks []stackSample, rules []layerRule) layerSplit {
	s := layerSplit{}
	for _, st := range stacks {
		l := layerOf(st.frames, rules)
		t := s[l]
		t.dur += st.cpu
		t.samples += int((st.cpu + profilePeriod/2) / profilePeriod)
		s[l] = t
	}
	return s
}

// profileLayers charges a CPU profile file to layers with the toolchain's
// pprof.
func profileLayers(path string, rules []layerRule) (layerSplit, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	stacks, err := parseTraces(bytes.NewReader(out))
	if err != nil {
		return nil, err
	}
	return attribute(stacks, rules), nil
}
