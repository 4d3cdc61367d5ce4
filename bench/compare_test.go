package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestQuartilesMatchPython checks quartiles against Python's
// statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		// Python extrapolates past the data for two values.
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	better := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	worse := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name         string
		base, change []float64
		want         string
	}{
		{"faster", base, better, "improved"},
		{"same", base, base, "unchanged"},
		{"slower", base, worse, "regressed"},
		{"few pairs", base[:5], better[:5], "unchanged"},
		{"noisy base", noisy, base, "unresolved"},
	} {
		if got := judge(c.base, c.change, 0, 0, "lower", 0.1); got.verdict != c.want {
			t.Errorf("%s: %s (%d/%d won), want %s", c.name, got.verdict, got.wins, got.pairs, c.want)
		}
	}
	if got := judge(better, base, 0, 0, "higher", 0.1); got.verdict != "improved" {
		t.Errorf("higher is better: %s", got.verdict)
	}
	// A change that answers fast by failing operations wins every pair
	// and still regresses.
	if got := judge(base, better, 0, 3, "lower", 0.1); got.verdict != "regressed" || got.wins != 10 {
		t.Errorf("more failed operations: %s (%d/%d won), want regressed", got.verdict, got.wins, got.pairs)
	}
	if got := judge(base, better, 3, 3, "lower", 0.1); got.verdict != "improved" {
		t.Errorf("as many failed operations as the base: %s, want improved", got.verdict)
	}
}

// TestSpecMatchesCode checks that BENCHMARK.json names exactly the
// workloads and metrics the benchmark computes.
func TestSpecMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, workloads []string
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names = append(names, m.Name)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	var known []string
	for n := range knownMetrics() {
		known = append(known, n)
	}
	sort.Strings(names)
	sort.Strings(known)
	if !slices.Equal(names, known) {
		t.Errorf("BENCHMARK.json metrics %v\nbenchmark computes %v", names, known)
	}
	var code []string
	for _, w := range servingWorkloads {
		code = append(code, w.name)
	}
	if !slices.Equal(workloads, code) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", workloads, code)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, e2eMetrics) {
		t.Errorf("end_to_end %v, want %v", e2e, e2eMetrics)
	}
}
