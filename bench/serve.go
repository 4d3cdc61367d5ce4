package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// coldStarts is how many times set-up runs; setup_s is their median and
// the last stack serves the measured phases.
const coldStarts = 15

// settle is the pause before each measured phase.
const settle = time.Second

// runServing runs one serving workload: set-up, a fixed-rate phase, a
// capacity phase, and when traced a longer capacity phase under the
// profiler. A refMeter runs throughout, so that every timed metric can be
// scaled to the reference speed.
func runServing(ctx context.Context, e *env, w *serving) (*result, error) {
	dir, err := e.runDir(w.name)
	if err != nil {
		return nil, err
	}
	o, err := newCityOracle(w.city)
	if err != nil {
		return nil, err
	}
	clients := makePrincipals(e.seed, w.clients)
	chk := &checker{oracle: o}
	res := newResult(w.name)
	ref, err := startRefMeter()
	if err != nil {
		return nil, err
	}
	defer ref.stopMeter()

	var st *stack
	var tb trafficBase
	var tr traffic
	var setups, rawSetups []float64
	for range coldStarts {
		if st != nil {
			tb.c.close()
			st.stop()
		}
		if _, err := ref.mark(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if st, err = w.start(e, w, dir, clients, e.trace); err != nil {
			return nil, err
		}
		tb = trafficBase{c: newCaller(st.front.url, e.seed), seed: e.seed, clients: clients, oracle: o, chk: chk}
		tr = w.traffic(tb)
		if err := runCount(ctx, tr.warmOps(), opsOf(tr, phaseWarm)); err != nil {
			tb.c.close()
			st.stop()
			return nil, fmt.Errorf("%s warm pass: %w", w.name, err)
		}
		secs := time.Since(t0).Seconds()
		// Each start is scaled by the reference measured during it: the
		// host's speed changes from one start to the next.
		r, err := ref.mark()
		if err != nil {
			tb.c.close()
			st.stop()
			return nil, err
		}
		rawSetups = append(rawSetups, secs)
		setups = append(setups, atRef(secs, r))
	}
	defer func() {
		tb.c.close()
		st.stop()
	}()
	if st.front.name != "lbsd" { // lbsd serves no /v1/stats
		if err := checkStats(ctx, tb); err != nil {
			return nil, err
		}
	}
	res.set("setup_s", median(setups), len(setups))
	res.set("setup_raw_s", median(rawSetups), len(rawSetups))

	// The gated metrics come from the fixed-rate phase, so it gets three
	// quarters of the measured time and the capacity phase the rest.
	fixedLen := time.Duration(e.seconds) * time.Second * 3 / 4
	capLen := time.Duration(e.seconds)*time.Second - fixedLen
	sleep(ctx, settle)
	m0, err := scrapeAll(e, st)
	if err != nil {
		return nil, err
	}
	if _, err := ref.mark(); err != nil {
		return nil, err
	}
	rss := sampleRSS(st)
	cpu0, gen0, ref0 := cpuAll(st), selfCPUSeconds(), ref.used()
	fixed := openLoop(ctx, w.rate, fixedLen, genConns, opsOf(tr, phaseFixed))
	cpu1, gen1, ref1 := cpuAll(st), selfCPUSeconds(), ref.used()
	rssMean, rssN, err := rss.mean()
	if err != nil {
		return nil, err
	}
	refFixed, err := ref.mark()
	if err != nil {
		return nil, err
	}
	m1, err := scrapeAll(e, st)
	if err != nil {
		return nil, err
	}
	peak, err := sumMemMB(st, "VmHWM")
	if err != nil {
		return nil, err
	}
	fs, err := summarize(fixed, fixedLen, true)
	if err != nil {
		return nil, fmt.Errorf("%s fixed-rate phase: %w", w.name, err)
	}
	n := len(fixed)
	res.set("p50_ms", fs.p50, n)
	res.set("p99_ms", fs.p99, n)
	cpuPerOp := 1e6 * sumCPU(cpu0, cpu1, "") / float64(n)
	res.set("cpu_us_per_op", atRef(cpuPerOp, refFixed), n)
	res.set("cpu_raw_us_per_op", cpuPerOp, n)
	res.set("ref_us", float64(refFixed)/float64(time.Microsecond), n)
	// The generator's own CPU time includes the meter's thread.
	genCPU := gen1 - gen0 - (ref1 - ref0).Seconds()
	res.set("gen.cpu_us_per_op", atRef(1e6*genCPU/float64(n), refFixed), n)
	res.set("rss_mb", rssMean, rssN)
	res.set("rss_peak_mb", peak, len(st.daemons))
	res.count(fixed)
	fixedDelta := phaseDelta{st: st, before: m0, after: m1}
	layerGroup(res, tr, fixedDelta, fixed, fs, fixedLen)
	if fs.backlog {
		res.note("fixed-rate phase: generator backlog grew (late p99 %.3f ms)", fs.lateP99)
	}

	sleep(ctx, settle)
	if _, err := ref.mark(); err != nil {
		return nil, err
	}
	cpuC0 := cpuAll(st)
	capacity := closedLoop(ctx, capLen, genConns, opsOf(tr, phaseCapacity))
	capCPU := sumCPU(cpuC0, cpuAll(st), "") / float64(len(capacity))
	refCap, err := ref.mark()
	if err != nil {
		return nil, err
	}
	cs, err := summarize(capacity, capLen, false)
	if err != nil {
		return nil, fmt.Errorf("%s capacity phase: %w", w.name, err)
	}
	capOps := float64(cs.okWithin) / capLen.Seconds()
	res.set("capacity_ops", capOps, len(capacity))
	res.count(capacity)
	if e.trace {
		sleep(ctx, settle)
		if err := tracedPhase(ctx, e, w, st, tr, ref, dir, fixedLen, res, capOps, atRef(capCPU, refCap)); err != nil {
			return nil, fmt.Errorf("%s traced phase: %w", w.name, err)
		}
	}
	if lt, ok := tr.(*lbsTraffic); ok {
		m2, err := scrapeAll(e, st)
		if err != nil {
			return nil, err
		}
		t0, t1 := m0[st.front].Counters["stream.ticks"], m2[st.front].Counters["stream.ticks"]
		lt.checkStream(ctx, t0, t1)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tb.c.close()
	st.stop()
	res.applyChecks(chk)
	return res, nil
}

// applyChecks verifies the answers the checker kept: each wrong one is a
// failed operation, and any wrong answer makes the run incorrect.
func (r *result) applyChecks(chk *checker) {
	r.failed += chk.verify()
	r.correct = chk.wrong == 0
	first := ""
	if chk.first != "" {
		first = "; first: " + chk.first
	}
	r.note("oracle: %d answers checked, %d wrong%s", chk.checked, chk.wrong, first)
}

// checkStats cross-checks the front daemon's city against the oracle.
func checkStats(ctx context.Context, t trafficBase) error {
	_, body, err := t.c.call(ctx, "GET", "/v1/stats", "", nil, t.clients[0], opID{phase: phaseChecks, i: 1}, true)
	if err != nil {
		return err
	}
	return t.oracle.checkStats(body)
}

// opsOf adapts a traffic's operations in one phase to the generator.
func opsOf(tr traffic, p phase) opFunc {
	return func(ctx context.Context, i int) (opKind, int, error) {
		return tr.op(ctx, opID{phase: p, i: i})
	}
}

// runCount runs operations 0..n-1 over the generator's connections and
// fails on the first error.
func runCount(ctx context.Context, n int, do opFunc) error {
	var mu sync.Mutex
	var first error
	next := 0
	var wg sync.WaitGroup
	for range genConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil || i >= n
				mu.Unlock()
				if stop {
					return
				}
				if _, _, err := do(ctx, i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

func sleep(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

func scrapeAll(e *env, st *stack) (map[*daemon]*snapshot, error) {
	m := make(map[*daemon]*snapshot, len(st.daemons))
	for _, d := range st.daemons {
		s, err := d.scrape(e.ops)
		if err != nil {
			return nil, err
		}
		m[d] = s
	}
	return m, nil
}

// cpuAll reads every daemon's CPU time; a daemon whose /proc entry is gone
// reads as 0, and the run fails later on its requests.
func cpuAll(st *stack) map[*daemon]float64 {
	m := make(map[*daemon]float64, len(st.daemons))
	for _, d := range st.daemons {
		m[d], _ = cpuSeconds(d.cmd.Process.Pid)
	}
	return m
}

// sumCPU is the CPU seconds daemons named name ("" for all) used between
// two readings.
func sumCPU(before, after map[*daemon]float64, name string) float64 {
	s := 0.0
	for d, v := range after {
		if name == "" || d.name == name {
			s += v - before[d]
		}
	}
	return s
}

// phaseDelta is the change in every daemon's /v1/metrics over a phase.
type phaseDelta struct {
	st            *stack
	before, after map[*daemon]*snapshot
}

// counter sums a counter's change over the daemons named name ("" for
// all).
func (p phaseDelta) counter(name, counter string) float64 {
	s := 0.0
	for _, d := range p.st.daemons {
		if name == "" || d.name == name {
			s += float64(p.after[d].Counters[counter]) - float64(p.before[d].Counters[counter])
		}
	}
	return s
}

// counterMatch sums the change of every counter with the given prefix
// and suffix over all daemons.
func (p phaseDelta) counterMatch(prefix, suffix string) float64 {
	s := 0.0
	for _, d := range p.st.daemons {
		for k, v := range p.after[d].Counters {
			if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
				s += float64(v) - float64(p.before[d].Counters[k])
			}
		}
	}
	return s
}

// meanMs returns the change over the phase in the summed latency and the
// count of one histogram, pooled over the daemons named name; get picks a
// route's histogram or a named one.
func (p phaseDelta) meanMs(name string, get func(*snapshot) latencySnap) (sum, count float64) {
	for _, d := range p.st.daemons {
		if d.name != name {
			continue
		}
		a, b := get(p.before[d]), get(p.after[d])
		sum += b.MeanMs*float64(b.Count) - a.MeanMs*float64(a.Count)
		count += float64(b.Count) - float64(a.Count)
	}
	return sum, count
}

func (p phaseDelta) routeMs(name string, routes ...string) float64 {
	var sum, count float64
	for _, route := range routes {
		s, c := p.meanMs(name, func(sn *snapshot) latencySnap { return sn.Routes[route].Latency })
		sum, count = sum+s, count+c
	}
	return ratio(sum, count)
}

func (p phaseDelta) histMs(name, hist string) float64 {
	return ratio(p.meanMs(name, func(sn *snapshot) latencySnap { return sn.Latencies[hist] }))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// API routes the workloads send to.
const (
	routeFreq    = "GET /v1/freq"
	routeBatch   = "POST /v1/freq/batch"
	routeRelease = "POST /v1/release"
	routeIngest  = "POST /v1/ingest"
)

// layerGroup sets the per-layer metrics read from /v1/metrics, /proc and
// the generator over the fixed-rate phase.
func layerGroup(res *result, tr traffic, p phaseDelta, ss []sample, fs phaseStats, d time.Duration) {
	ops := float64(len(ss))
	items := 0.0
	for _, s := range ss {
		items += float64(tr.items(s.kind))
	}
	res.set("gspd.server_ms.freq", p.routeMs("gspd", routeFreq), 0)
	res.set("gspd.server_ms.freq_batch", p.routeMs("gspd", routeBatch), 0)
	res.set("gspgw.server_ms.freq", p.routeMs("gspgw", routeFreq), 0)
	res.set("gspgw.server_ms.freq_batch", p.routeMs("gspgw", routeBatch), 0)
	res.set("lbsd.server_ms.release", p.routeMs("lbsd", routeRelease), 0)
	res.set("lbsd.server_ms.ingest", p.routeMs("lbsd", routeIngest), 0)
	front := p.st.front.name
	res.set("net_ms", fs.serviceMean-p.routeMs(front, routeFreq, routeBatch, routeRelease, routeIngest), 0)
	if front == "gspgw" {
		res.set("gw.hop_ms", p.routeMs("gspgw", routeFreq)-p.routeMs("gspd", routeFreq), 0)
		res.set("cluster.fanout_ms", p.histMs("gspgw", "cluster.fanout"), 0)
		res.set("cluster.peer_calls_per_op", p.apiRequests("gspd")/ops, 0)
		res.set("cluster.errors", p.counterMatch("cluster.shard.", ".errors"), 0)
	}
	encHits, encMisses := p.counter("", "enc.cache.hits"), p.counter("", "enc.cache.misses")
	res.set("enc.hit_ratio", ratio(encHits, encHits+encMisses), 0)
	res.set("enc.evictions_per_op", p.counter("", "enc.cache.evictions")/ops, 0)
	gspHits, gspMisses := p.counter("", "gsp.cache.hits"), p.counter("", "gsp.cache.misses")
	res.set("gsp.hit_ratio", ratio(gspHits, gspHits+gspMisses), 0)
	res.set("gsp.computes_per_item", ratio(p.counter("", "gsp.singleflight.leader"), items), 0)
	res.set("gsp.sf_joined", p.counter("", "gsp.singleflight.shared"), 0)
	verifies := p.counter("", "auth.ok") + p.counter("", "auth.rejected") + p.counter("", "auth.replay")
	res.set("auth.verifies_per_op", verifies/ops, 0)
	res.set("auth.rejected", p.counter("", "auth.rejected")+p.counter("", "auth.replay"), 0)
	res.set("admission.shed", p.counter("", "admission.shed"), 0)
	res.set("budget.decision_ms", p.histMs("lbsd", "budget.decision"), 0)
	res.set("budget.denies", p.counter("", "budget.denies"), 0)
	res.set("stream.events_per_s", p.counter("", "stream.events_accepted")/d.Seconds(), 0)
	res.set("stream.dropped", p.counter("", "stream.events_dropped"), 0)
	res.set("stream.users_evicted", p.counter("", "stream.users_evicted"), 0)
	res.set("stream.ticks", p.counter("", "stream.ticks"), 0)
	res.set("gen.late_p99_ms", fs.lateP99, len(ss))
	for _, name := range []string{"auth.rejected", "admission.shed", "budget.denies"} {
		if v := res.metrics[name]; v != 0 {
			res.note("%s = %g over the fixed-rate phase; it must be 0", name, v)
		}
	}
}

// apiRequests is the number of freq requests the daemons named name
// served over the phase.
func (p phaseDelta) apiRequests(name string) float64 {
	s := 0.0
	for _, d := range p.st.daemons {
		if d.name != name {
			continue
		}
		for _, route := range []string{routeFreq, routeBatch} {
			s += float64(p.after[d].Routes[route].Requests) - float64(p.before[d].Routes[route].Requests)
		}
	}
	return s
}

// tracedPhase runs the closed loop again, for d, while every daemon
// records a CPU profile; it charges each profile's stacks to layers and
// writes the generator's spans. It profiles the saturated closed loop, not
// the fixed rate, because the guest kernel stops the scheduler tick on an
// idle CPU, and Go's profiler, which the tick drives, then misses most of
// the short bursts a lightly loaded daemon runs: at gsp-hot's fixed rate
// the profile held 20% of gspd's CPU, saturated about 90%.
//
// Its CPU times per operation are scaled to the reference speed, like
// capCPU, the untraced capacity phase's.
func tracedPhase(ctx context.Context, e *env, w *serving, st *stack, tr traffic, ref *refMeter, dir string, d time.Duration, res *result, capOps, capCPU float64) error {
	secs := int(d.Round(time.Second) / time.Second)
	profiles := make(map[*daemon]string, len(st.daemons))
	errs := make([]error, len(st.daemons))
	var wg sync.WaitGroup
	for i, dm := range st.daemons {
		path := filepath.Join(dir, fmt.Sprintf("cpu-%s-%d.pb.gz", dm.name, i))
		profiles[dm] = path
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = dm.fetchProfile(e.ops, secs, path)
		}()
	}
	if _, err := ref.mark(); err != nil {
		return err
	}
	cpu0 := cpuAll(st)
	traced := closedLoop(ctx, d, genConns, opsOf(tr, phaseTraced))
	cpu1 := cpuAll(st)
	refTraced, err := ref.mark()
	wg.Wait()
	if err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	res.count(traced)
	ts, err := summarize(traced, d, false)
	if err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(dir, "spans-"+w.name+".json"), traced); err != nil {
		return err
	}
	ops := float64(len(traced))
	tracedOps, tracedCPU := float64(ts.okWithin)/d.Seconds(), atRef(sumCPU(cpu0, cpu1, "")/ops, refTraced)
	res.set("trace.capacity_ratio", tracedOps/capOps, len(traced))
	res.set("trace.cpu_ratio", tracedCPU/capCPU, len(traced))
	res.note("tracing overhead: capacity_ops %.0f traced vs %.0f untraced; daemon CPU %.2f vs %.2f µs/op",
		tracedOps, capOps, 1e6*tracedCPU, 1e6*capCPU)

	splits := make(map[string]layerSplit)
	for _, dm := range st.daemons {
		sp, err := profileLayers(profiles[dm], daemonRules)
		if err != nil {
			return err
		}
		if splits[dm.name] == nil {
			splits[dm.name] = layerSplit{}
		}
		splits[dm.name].add(sp)
	}
	for name, sp := range splits {
		procUs := atRef(1e6*sumCPU(cpu0, cpu1, name)/ops, refTraced)
		res.set(name+".cpu_us_per_op", procUs, len(traced))
		sampledUs := atRef(1e6*sp.total().Seconds()/ops, refTraced)
		res.set(name+".profile_coverage", sampledUs/procUs, 0)
		res.note("%s: layers sum to %.2f µs/op, /proc charged %.2f µs/op (%.1f%%)", name, sampledUs, procUs, 100*sampledUs/procUs)
		for layer, lt := range sp {
			res.set(name+".cpu_us_per_op."+layer, atRef(1e6*lt.dur.Seconds()/ops, refTraced), lt.samples)
			if lt.samples < minLayerSamples {
				res.note("%s layer %s has %d samples (< %d)", name, layer, lt.samples, minLayerSamples)
			}
		}
	}
	return nil
}

// minLayerSamples is the sample count below which a layer's CPU share is
// flagged as too noisy to read.
const minLayerSamples = 50

// runDir returns bench/out/<workload>-seed<S>[-trace], creating it if
// needed: the run's daemon logs, key files, profiles and spans go there.
func (e *env) runDir(workload string) (string, error) {
	name := fmt.Sprintf("%s-seed%d", workload, e.seed)
	if e.trace {
		name += "-trace"
	}
	dir := filepath.Join(e.root, "bench", "out", name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
