package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"poiagg/internal/wire"
)

// buildBinaries compiles the programs under test into binDir. Compile time
// is excluded from every metric.
func buildBinaries(root, binDir string) error {
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/gspd", "./cmd/gspgw", "./cmd/lbsd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build the programs under test: %w", err)
	}
	return nil
}

// daemon is one child process of the stack under test.
type daemon struct {
	name string // gspd, gspgw or lbsd
	url  string
	log  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
}

// startDaemon launches bin listening on a free loopback port, with its
// output (the request log included) sent to logPath.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = f, f
	// A daemon must not outlive a benchmark that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{name: filepath.Base(bin), url: "http://" + addr, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon carries no information
		f.Close()
		close(d.done)
	}()
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before it was ready; see %s", d.name, d.log)
		default:
		}
		if resp, err := hc.Get(d.url + "/readyz"); err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		// A short poll keeps its wait from adding noise to setup_s: a
		// daemon is ready in 10-25 ms.
		sleepFor(200 * time.Microsecond)
	}
	return fmt.Errorf("%s not ready after %v; see %s", d.name, timeout, d.log)
}

// stop sends SIGTERM, kills the process if it has not exited after 5 s,
// and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuSeconds returns the process's user+system CPU time from /proc.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
	}
	return (ut + st) / clockTicks, nil
}

// memMB returns a memory field of the process's /proc status, VmRSS or
// VmHWM, in MB.
func memMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// sumMemMB sums a memory field over the stack's daemons.
func sumMemMB(st *stack, field string) (float64, error) {
	sum := 0.0
	for _, d := range st.daemons {
		mb, err := memMB(d.cmd.Process.Pid, field)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// rssPeriod is how often an rssSampler reads the daemons' resident size.
const rssPeriod = 100 * time.Millisecond

// rssSampler reads the daemons' summed VmRSS every rssPeriod. Its mean is
// steadier than the peak: a Go heap's resident size rises and falls with
// each GC cycle, and the peak depends on where the last cycle fell.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  float64
	n    int
	err  error
}

func sampleRSS(st *stack) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			mb, err := sumMemMB(st, "VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.sum += mb
			s.n++
		}
	}()
	return s
}

// mean stops the sampler and returns the mean of its samples and their
// number.
func (s *rssSampler) mean() (float64, int, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, 0, s.err
	}
	if s.n == 0 {
		return 0, 0, errors.New("no resident-size sample")
	}
	return s.sum / float64(s.n), s.n, nil
}

// selfCPUSeconds returns the generator's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// snapshot is the part of a daemon's /v1/metrics document the benchmark
// reads. It is decoded here rather than with the daemons' own types so
// that the instrument does not change along with the program.
type snapshot struct {
	Routes    map[string]routeSnap   `json:"routes"`
	Counters  map[string]uint64      `json:"counters"`
	Latencies map[string]latencySnap `json:"latencies"`
}

type routeSnap struct {
	Requests uint64      `json:"requests"`
	Latency  latencySnap `json:"latency"`
}

type latencySnap struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"meanMs"`
}

// scrape fetches the daemon's /v1/metrics.
func (d *daemon) scrape(hc *http.Client) (*snapshot, error) {
	resp, err := hc.Get(d.url + "/v1/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", d.name, err)
	}
	defer resp.Body.Close()
	var s snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode %s metrics: %w", d.name, err)
	}
	return &s, nil
}

// fetchProfile saves a CPU profile of the next `seconds` seconds to path.
func (d *daemon) fetchProfile(hc *http.Client, seconds int, path string) error {
	resp, err := hc.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.url, seconds))
	if err != nil {
		return fmt.Errorf("profile %s: %w", d.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("profile %s: status %d", d.name, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("profile %s: %w", d.name, err)
	}
	return os.WriteFile(path, b, 0o644)
}

// newOpsClient is for readiness, metrics and profiles: traffic the
// generator's two connections do not carry.
func newOpsClient() *http.Client {
	return &http.Client{Timeout: 90 * time.Second, Transport: &http.Transport{Proxy: nil}}
}

// principal is a client identity with its signing key.
type principal struct {
	name string
	key  []byte
}

// makePrincipals derives n client identities and their keys from the seed.
func makePrincipals(seed uint64, n int) []principal {
	ps := make([]principal, n)
	for i := range ps {
		r := newRand(seed, streamKeys, uint64(i))
		key := make([]byte, 32)
		for j := 0; j < len(key); j += 8 {
			v := r.next()
			for k := 0; k < 8; k++ {
				key[j+k] = byte(v >> (8 * k))
			}
		}
		ps[i] = principal{name: fmt.Sprintf("c%04d-%06x", i, r.next()&0xffffff), key: key}
	}
	return ps
}

// writeKeyFile writes the principals in the daemons' -auth-keys @file
// format.
func writeKeyFile(path string, ps []principal) error {
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "%s=%s\n", p.name, hex.EncodeToString(p.key))
	}
	return os.WriteFile(path, []byte(b.String()), 0o600)
}

func (p principal) spec() string { return p.name + "=" + hex.EncodeToString(p.key) }

// caller sends signed requests for the generator: at most genConns
// keep-alive connections, one request at a time on each, a deadline of
// requestTimeout per request, and no retries. It writes and parses
// HTTP/1.1 with net/http's wire functions but not its Transport, whose
// two goroutines per connection cost the generator more CPU per request
// than gspd spends answering it.
type caller struct {
	addr string
	seed uint64
	// idle holds the connections not in use; nil stands for one not yet
	// dialed or dropped after an error.
	idle chan *httpConn
}

type httpConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// genConns is the generator's connection count: one per core of the
// 2-core machine the benchmark was designed on.
const genConns = 2

// requestTimeout bounds each request, from write to the last body byte.
const requestTimeout = 2 * time.Second

func newCaller(base string, seed uint64) *caller {
	c := &caller{addr: strings.TrimPrefix(base, "http://"), seed: seed, idle: make(chan *httpConn, genConns)}
	for range genConns {
		c.idle <- nil
	}
	return c
}

// close closes the connections; call it once no request is running. A
// later request dials again.
func (c *caller) close() {
	for range genConns {
		if hc := <-c.idle; hc != nil {
			hc.nc.Close()
		}
	}
	for range genConns {
		c.idle <- nil
	}
}

// call sends one request signed by p with a nonce derived from the seed
// and id, which must be unique within the daemons' lifetime. It returns
// the status and, when keep is set, the body; otherwise the body is
// drained unread. Any status but 2xx is an error.
func (c *caller) call(ctx context.Context, method, path, query string, body []byte, p principal, id opID, keep bool) (int, []byte, error) {
	u := "http://" + c.addr + path
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	nonce := fmt.Sprintf("%016x", newRand(c.seed, streamNonce, id.key()).next())
	if err := wire.SignRequest(req, body, p.name, p.key, time.Now(), nonce); err != nil {
		return 0, nil, err
	}
	var hc *httpConn
	select {
	case hc = <-c.idle:
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
	status, b, reuse, err := c.roundTrip(&hc, req, keep)
	if !reuse && hc != nil {
		hc.nc.Close()
		hc = nil
	}
	c.idle <- hc
	return status, b, err
}

// roundTrip sends req on *hc, dialing first if it is nil, and reads the
// whole response. reuse reports whether the connection can carry the
// next request.
func (c *caller) roundTrip(hc **httpConn, req *http.Request, keep bool) (status int, body []byte, reuse bool, err error) {
	deadline := time.Now().Add(requestTimeout)
	if *hc == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, false, err
		}
		*hc = &httpConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	}
	k := *hc
	if err := k.nc.SetDeadline(deadline); err != nil {
		return 0, nil, false, err
	}
	if err := req.Write(k.bw); err != nil {
		return 0, nil, false, err
	}
	if err := k.bw.Flush(); err != nil {
		return 0, nil, false, err
	}
	resp, err := http.ReadResponse(k.br, req)
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		_, err := io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, err == nil && !resp.Close,
			fmt.Errorf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if keep {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, body, err == nil && !resp.Close, err
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // best effort: only keeps the connection reusable
	resp.Body.Close()
}
