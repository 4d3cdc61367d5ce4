// Command benchjson converts `go test -bench` output on stdin into a
// JSON document, teeing the raw text through to stderr so the run stays
// watchable. It backs the `make bench-core` target, which pins the PR's
// performance claims (sharded cache, batched wire queries, parallel
// sweeps, histogram index, parallel Gram) to machine-readable numbers in
// BENCH_core.json.
//
// Repeats of a benchmark (go test -count=N) fold into their median ns/op.
//
// With -prev it additionally diffs the fresh run against a committed
// baseline document and exits nonzero when any shared benchmark regressed
// by more than -max-regress in ns/op — the `make bench-diff` regression
// gate. Names match without go test's -<GOMAXPROCS> suffix.
//
// Usage:
//
//	go test -bench 'FreqCacheSharded' -benchmem ./internal/gsp | benchjson -out BENCH_core.json
//	go test -bench ... | benchjson -prev BENCH_core.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark: its first run, with NsPerOp the median over
// all its runs.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp,omitempty"`
	AllocsPerOp int64   `json:"allocsPerOp,omitempty"`
}

// Document is the emitted JSON file.
type Document struct {
	Results []Result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, tee io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("out", "BENCH.json", "output JSON file")
	prev := fs.String("prev", "", "baseline JSON to diff against; exit nonzero on regression")
	maxRegress := fs.Float64("max-regress", 0.20, "ns/op regression tolerance vs -prev (0.20 = +20%)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// In diff mode the JSON file is only written when -out was given
	// explicitly: a regression check must not clobber the committed
	// baseline it compares against.
	outSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})

	var doc Document
	index := make(map[string]int)
	var ns [][]float64 // ns/op of every run, by result index
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(tee, line)
		if res, ok := parseBenchLine(line); ok {
			i, seen := index[res.Name]
			if !seen {
				i = len(doc.Results)
				index[res.Name] = i
				doc.Results = append(doc.Results, res)
				ns = append(ns, nil)
			}
			ns[i] = append(ns[i], res.NsPerOp)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(doc.Results) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	for i, v := range ns {
		slices.Sort(v)
		doc.Results[i].NsPerOp = (v[(len(v)-1)/2] + v[len(v)/2]) / 2
	}

	if *prev == "" || outSet {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(tee, "benchjson: wrote %d results to %s\n", len(doc.Results), *out)
	}
	if *prev != "" {
		return diffAgainst(*prev, doc, *maxRegress, tee)
	}
	return nil
}

// diffAgainst compares the fresh results to the baseline document by
// benchmark name, printing a per-benchmark delta line and returning an
// error when any shared benchmark's ns/op regressed beyond tolerance.
// Benchmarks present on only one side are reported but never fail the
// run — adding an ablation must not break the gate.
func diffAgainst(path string, cur Document, maxRegress float64, tee io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base Document
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseByName := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseByName[withoutProcs(r.Name)] = r
	}

	var regressed []string
	matched := 0
	for _, r := range cur.Results {
		b, ok := baseByName[withoutProcs(r.Name)]
		if !ok {
			fmt.Fprintf(tee, "benchjson: %-60s new (no baseline)\n", r.Name)
			continue
		}
		matched++
		delete(baseByName, withoutProcs(r.Name))
		if b.NsPerOp <= 0 {
			fmt.Fprintf(tee, "benchjson: %-60s baseline ns/op is 0, skipped\n", r.Name)
			continue
		}
		delta := (r.NsPerOp - b.NsPerOp) / b.NsPerOp
		status := "ok"
		if delta > maxRegress {
			status = "REGRESSED"
			regressed = append(regressed, r.Name)
		}
		fmt.Fprintf(tee, "benchjson: %-60s %12.1f -> %12.1f ns/op  %+6.1f%%  %s\n",
			r.Name, b.NsPerOp, r.NsPerOp, delta*100, status)
	}
	for name := range baseByName {
		fmt.Fprintf(tee, "benchjson: %-60s missing from this run\n", name)
	}
	if matched == 0 {
		return fmt.Errorf("no benchmarks shared with baseline %s", path)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%: %s",
			len(regressed), maxRegress*100, strings.Join(regressed, ", "))
	}
	fmt.Fprintf(tee, "benchjson: %d benchmark(s) within %.0f%% of %s\n", matched, maxRegress*100, path)
	return nil
}

// procsSuffix is the -<GOMAXPROCS> suffix go test adds unless it is 1.
var procsSuffix = regexp.MustCompile(`-[0-9]+$`)

func withoutProcs(name string) string { return procsSuffix.ReplaceAllString(name, "") }

// parseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkFreqCacheSharded/sharded-8   2262099   530.6 ns/op   216 B/op   3 allocs/op
//
// Lines that are not benchmark results (headers, PASS, ok ...) report
// false.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			ns, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Result{}, false
			}
			res.NsPerOp = ns
			seen = true
		case "B/op":
			res.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			res.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	return res, seen
}
