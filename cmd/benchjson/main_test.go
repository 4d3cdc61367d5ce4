package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: poiagg/internal/gsp
BenchmarkFreqCacheSharded/sharded-8   2262099   530.6 ns/op   216 B/op   3 allocs/op
BenchmarkFreqCacheSharded/locked-8    1000000  1200.0 ns/op   216 B/op   3 allocs/op
PASS
ok  	poiagg/internal/gsp	3.1s
`

func TestParseBenchLine(t *testing.T) {
	res, ok := parseBenchLine("BenchmarkX/sub-8   100   12.5 ns/op   8 B/op   1 allocs/op")
	if !ok {
		t.Fatal("valid line rejected")
	}
	if res.Name != "BenchmarkX/sub-8" || res.Iterations != 100 || res.NsPerOp != 12.5 ||
		res.BytesPerOp != 8 || res.AllocsPerOp != 1 {
		t.Fatalf("parsed %+v", res)
	}
	for _, bad := range []string{"PASS", "ok  \tpkg\t1s", "goos: linux", "BenchmarkX nan ns/op"} {
		if _, ok := parseBenchLine(bad); ok {
			t.Errorf("accepted non-result line %q", bad)
		}
	}
}

func TestRunWritesJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{"-out", out}, strings.NewReader(sampleBench), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 || doc.Results[0].Name != "BenchmarkFreqCacheSharded/sharded-8" {
		t.Fatalf("results %+v", doc.Results)
	}
}

// writeBaseline writes a baseline document with the given ns/op for the
// two sample benchmarks.
func writeBaseline(t *testing.T, sharded, locked float64) string {
	t.Helper()
	doc := Document{Results: []Result{
		{Name: "BenchmarkFreqCacheSharded/sharded-8", Iterations: 1, NsPerOp: sharded},
		{Name: "BenchmarkFreqCacheSharded/locked-8", Iterations: 1, NsPerOp: locked},
	}}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPrevWithinTolerance(t *testing.T) {
	// Baseline slightly slower than the run: no regression.
	base := writeBaseline(t, 600, 1300)
	var tee strings.Builder
	if err := run([]string{"-prev", base}, strings.NewReader(sampleBench), &tee); err != nil {
		t.Fatalf("unexpected failure: %v\n%s", err, tee.String())
	}
	if !strings.Contains(tee.String(), "within 20%") {
		t.Errorf("missing summary line in:\n%s", tee.String())
	}
}

func TestRunPrevDetectsRegression(t *testing.T) {
	// Baseline far faster than the run: the 20% gate must trip.
	base := writeBaseline(t, 100, 100)
	var tee strings.Builder
	err := run([]string{"-prev", base}, strings.NewReader(sampleBench), &tee)
	if err == nil {
		t.Fatalf("regression not detected:\n%s", tee.String())
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Errorf("error %q does not mention regression", err)
	}
	if !strings.Contains(tee.String(), "REGRESSED") {
		t.Errorf("missing REGRESSED marker in:\n%s", tee.String())
	}
}

func TestRunPrevCustomTolerance(t *testing.T) {
	// +112% vs baseline passes a 200% gate.
	base := writeBaseline(t, 250, 600)
	if err := run([]string{"-prev", base, "-max-regress", "2.0"},
		strings.NewReader(sampleBench), io.Discard); err != nil {
		t.Fatalf("custom tolerance not honored: %v", err)
	}
}

func TestRunPrevDoesNotClobberDefaultOut(t *testing.T) {
	dir := t.TempDir()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	base := writeBaseline(t, 600, 1300)
	if err := run([]string{"-prev", base}, strings.NewReader(sampleBench), io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("BENCH.json"); !os.IsNotExist(err) {
		t.Error("diff mode wrote BENCH.json without -out")
	}
}

func TestRunPrevMismatchedNames(t *testing.T) {
	doc := Document{Results: []Result{{Name: "BenchmarkOther", Iterations: 1, NsPerOp: 5}}}
	raw, _ := json.Marshal(doc)
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-prev", path}, strings.NewReader(sampleBench), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no benchmarks shared") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunNoInput(t *testing.T) {
	if err := run(nil, strings.NewReader("PASS\n"), io.Discard); err == nil {
		t.Error("empty input accepted")
	}
}

// TestRunPrevIgnoresProcsSuffix matches a baseline recorded at
// GOMAXPROCS=1, whose names carry no -N suffix, against a run at 8.
func TestRunPrevIgnoresProcsSuffix(t *testing.T) {
	doc := Document{Results: []Result{
		{Name: "BenchmarkFreqCacheSharded/sharded", Iterations: 1, NsPerOp: 600},
		{Name: "BenchmarkFreqCacheSharded/locked", Iterations: 1, NsPerOp: 1300},
	}}
	raw, _ := json.Marshal(doc)
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var tee strings.Builder
	if err := run([]string{"-prev", path}, strings.NewReader(sampleBench), &tee); err != nil {
		t.Fatalf("suffixed run did not match the baseline: %v\n%s", err, tee.String())
	}
	if !strings.Contains(tee.String(), "2 benchmark(s) within 20%") {
		t.Errorf("missing summary line in:\n%s", tee.String())
	}
}

// TestRunFoldsRepeats folds -count repeats into one result at their
// median, and diffs that median, not each repeat, against the baseline.
func TestRunFoldsRepeats(t *testing.T) {
	in := `BenchmarkFreqCacheSharded/sharded-2   100   900.0 ns/op   216 B/op   3 allocs/op
BenchmarkFreqCacheSharded/locked-2    100  1200.0 ns/op   216 B/op   3 allocs/op
BenchmarkFreqCacheSharded/sharded-2   200   500.0 ns/op   216 B/op   3 allocs/op
BenchmarkFreqCacheSharded/sharded-2   300   510.0 ns/op   216 B/op   3 allocs/op
`
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-out", out}, strings.NewReader(in), io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("results %+v, want one per benchmark", doc.Results)
	}
	if r := doc.Results[0]; r.Name != "BenchmarkFreqCacheSharded/sharded-2" || r.NsPerOp != 510 {
		t.Errorf("folded sharded = %+v, want the 510 ns/op median of 3 runs", r)
	}

	// The 900 ns/op outlier is 50% over this baseline; the median is not.
	base := writeBaseline(t, 600, 1300)
	var tee strings.Builder
	if err := run([]string{"-prev", base}, strings.NewReader(in), &tee); err != nil {
		t.Fatalf("median within tolerance failed the gate: %v\n%s", err, tee.String())
	}
	if strings.Contains(tee.String(), "new (no baseline)") {
		t.Errorf("a repeat was reported as a new benchmark:\n%s", tee.String())
	}
}
