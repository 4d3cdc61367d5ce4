// Command bench measures the poiagg daemon stack end to end. It builds
// the real gspd, gspgw and lbsd from the repository, runs them
// as child processes with production-shaped flags, drives them from one
// generator process, checks sampled answers against a brute-force oracle,
// and reads per-layer numbers from outside: the daemons' /v1/metrics,
// /proc, and CPU profiles.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload gsp-hot --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh                        # every workload, untraced
//	bash bench/run.sh --trace 1              # per-layer CPU split
//	bash bench/run.sh -compare base.json change.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json untraced, its per-layer metrics traced. A wrong answer
// makes the benchmark exit 1; a run that cannot be carried out exits 2.
// See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	cancel()
	os.Exit(code)
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workload   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	known := knownMetrics()
	for _, m := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
		if !known[m.Name] {
			return nil, fmt.Errorf("%s: the benchmark does not compute metric %q", path, m.Name)
		}
	}
	for _, w := range s.Workloads {
		if servingByName(w.Name) == nil {
			return nil, fmt.Errorf("%s: unknown workload %q", path, w.Name)
		}
	}
	return &s, nil
}

// e2eMetrics are the end-to-end metrics every workload computes.
var e2eMetrics = []string{"setup_s", "cpu_us_per_op", "rss_mb"}

// fixedLayerMetrics are the per-layer metrics read from /v1/metrics,
// /proc and the generator on every run.
var fixedLayerMetrics = []string{
	"p50_ms", "p99_ms", "capacity_ops", "setup_raw_s", "cpu_raw_us_per_op", "ref_us", "rss_peak_mb", "gen.cpu_us_per_op",
	"gspd.server_ms.freq", "gspd.server_ms.freq_batch", "gspgw.server_ms.freq", "gspgw.server_ms.freq_batch",
	"lbsd.server_ms.release", "lbsd.server_ms.ingest", "net_ms", "gw.hop_ms",
	"cluster.fanout_ms", "cluster.peer_calls_per_op", "cluster.errors",
	"enc.hit_ratio", "enc.evictions_per_op", "gsp.hit_ratio", "gsp.computes_per_item", "gsp.sf_joined",
	"auth.verifies_per_op", "auth.rejected", "admission.shed", "budget.decision_ms", "budget.denies",
	"stream.events_per_s", "stream.dropped", "stream.users_evicted", "stream.ticks",
	"gen.late_p99_ms",
}

// knownMetrics is every metric name the serving workloads compute.
func knownMetrics() map[string]bool {
	names := slices.Clone(e2eMetrics)
	names = append(names, fixedLayerMetrics...)
	names = append(names, "trace.capacity_ratio", "trace.cpu_ratio")
	for d, layers := range daemonLayers {
		names = append(names, d+".cpu_us_per_op", d+".profile_coverage")
		for _, l := range layers {
			names = append(names, d+".cpu_us_per_op."+l)
		}
	}
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func servingByName(name string) *serving {
	for _, w := range servingWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is one invocation's settings.
type env struct {
	root    string
	binDir  string
	seed    uint64
	seconds int
	trace   bool
	spec    *benchSpec
	ops     *http.Client
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// result is one workload run.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	// metrics holds every value the run computed; n holds its sample
	// count where one applies.
	metrics map[string]float64
	n       map[string]int
	notes   []string
}

func newResult(workload string) *result {
	return &result{workload: workload, correct: true, metrics: map[string]float64{}, n: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.n[name] = n
}

// count adds a phase's operations to attempted and failed.
func (r *result) count(ss []sample) {
	r.attempted += len(ss)
	for _, s := range ss {
		if s.err != nil {
			r.failed++
			if r.failed == 1 {
				r.note("first failed operation: %v", s.err)
			}
		}
	}
}

// exitCode is exitWrong when an answer failed its check.
func (r *result) exitCode() int {
	if !r.correct {
		return exitWrong
	}
	return exitOK
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// exit codes
const (
	exitOK    = 0
	exitWrong = 1 // an answer failed its check
	exitError = 2 // the run could not be carried out
)

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed: every input, principal, key and nonce derives from it")
	seconds := fs.Int("seconds", 0, "measured seconds per serving run (default run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	recordTo := fs.String("record", "", "append each run to a results file, given as path#set")
	compare := fs.Bool("compare", false, "compare the results files given as arguments: base[#set] change[#set]")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root:", err)
		return exitError
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
			return exitError
		}
		if err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return exitError
		}
		return exitOK
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -seconds >= 2 and -trace 0 or 1")
		return exitError
	}
	names := []string{*workloadName}
	if *workloadName == "all" {
		names = nil
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	// The generator runs on two cores, like the machine the rates were
	// calibrated on.
	runtime.GOMAXPROCS(2)
	e, err := newEnv(*seed, *seconds, *trace == 1, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitError
	}
	code := exitOK
	for _, name := range names {
		res, err := runOne(ctx, e, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return exitError
		}
		if err := report(stdout, e, reportList(e), res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return exitError
		}
		if *recordTo != "" {
			r := record{Workload: name, Seed: *seed, Trace: e.trace, Correct: res.correct,
				Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics}
			if err := appendRecord(*recordTo, r); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return exitError
			}
		}
		code = max(code, res.exitCode())
	}
	return code
}

func newEnv(seed uint64, seconds int, trace bool, spec *benchSpec) (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "gspd")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	e := &env{root: root, binDir: filepath.Join(root, ".bench_build", "bin"),
		seed: seed, seconds: seconds, trace: trace, spec: spec, ops: newOpsClient()}
	if err := buildBinaries(root, e.binDir); err != nil {
		return nil, err
	}
	return e, nil
}

func runOne(ctx context.Context, e *env, name string) (*result, error) {
	w := servingByName(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return runServing(ctx, e, w)
}

// reportList is the metrics a run's JSON line carries: the end-to-end
// metrics of BENCHMARK.json, or traced its per-layer ones.
func reportList(e *env) []metricSpec {
	if e.trace {
		return e.spec.PerLayer
	}
	return e.spec.EndToEnd
}

// report prints a run's metrics, its notes, and, last, the JSON result
// line carrying the metrics of list.
func report(w io.Writer, e *env, list []metricSpec, res *result) error {
	fmt.Fprintf(w, "== %s seed=%d seconds=%d trace=%v: attempted %d, failed %d, correct %v\n",
		res.workload, e.seed, e.seconds, e.trace, res.attempted, res.failed, res.correct)
	printed := make(map[string]bool)
	for _, group := range [][]metricSpec{list, e.spec.EndToEnd, e.spec.PerLayer} {
		for _, m := range group {
			if v, ok := res.metrics[m.Name]; ok && !printed[m.Name] {
				fmt.Fprintf(w, "  %-34s %14.6g %-7s n=%d\n", m.Name, v, m.Unit, res.n[m.Name])
				printed[m.Name] = true
			}
		}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "  note:", n)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]value, len(list))}
	var bad []string
	for _, m := range list {
		v := res.metrics[m.Name] // a metric the workload does not exercise reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, m.Name)
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s: non-finite metrics %s", res.workload, strings.Join(bad, ", "))
	}
	if res.attempted < 1 {
		return errors.New(res.workload + ": attempted no operations")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}
