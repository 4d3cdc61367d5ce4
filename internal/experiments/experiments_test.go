package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
)

var (
	envOnce sync.Once
	envInst *Env
)

// sharedEnv reuses one quick-scale environment for every driver test;
// models and datasets are trained/generated once.
func sharedEnv() *Env {
	envOnce.Do(func() {
		envInst = NewEnv(Config{Seed: 5, Scale: ScaleQuick, Locations: 60})
	})
	return envInst
}

func checkFigure(t *testing.T, fig *Figure, wantSeries int) {
	t.Helper()
	if fig.ID == "" || fig.Title == "" {
		t.Error("figure missing ID or title")
	}
	if len(fig.Series) < wantSeries {
		t.Fatalf("figure %s has %d series, want ≥ %d", fig.ID, len(fig.Series), wantSeries)
	}
	for _, s := range fig.Series {
		if len(s.X) != len(s.Y) {
			t.Fatalf("series %q has %d X vs %d Y", s.Name, len(s.X), len(s.Y))
		}
		if len(s.X) == 0 {
			t.Fatalf("series %q empty", s.Name)
		}
	}
	if out := fig.String(); !strings.Contains(out, fig.ID) {
		t.Error("String does not mention figure ID")
	}
}

func rateInRange(t *testing.T, fig *Figure) {
	t.Helper()
	for _, s := range fig.Series {
		for i, y := range s.Y {
			if y < 0 || y > 1 {
				t.Errorf("%s series %q point %d = %v outside [0,1]", fig.ID, s.Name, i, y)
			}
		}
	}
}

func TestDatasetTable(t *testing.T) {
	fig, err := DatasetTable(sharedEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
}

func TestFig2(t *testing.T) {
	fig, err := Fig2(sharedEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	rateInRange(t, fig)
	// Recovery models must be strong (paper: >0.95; quick scale: >0.85).
	for _, s := range fig.Series {
		for i, y := range s.Y {
			if y < 0.85 {
				t.Errorf("%s accuracy at r=%.1f is %v", s.Name, s.X[i], y)
			}
		}
	}
	// The figure is a pure function of the cached recoverers, so repeat
	// calls must reproduce every value bit for bit.
	for rep := 0; rep < 20; rep++ {
		again, err := Fig2(sharedEnv())
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range fig.Series {
			for i, y := range s.Y {
				if got := again.Series[si].Y[i]; math.Float64bits(got) != math.Float64bits(y) {
					t.Fatalf("repeat %d: %s at r=%.1f is %v, first call %v", rep, s.Name, s.X[i], got, y)
				}
			}
		}
	}
}

func TestFig3(t *testing.T) {
	fig, err := Fig3(sharedEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 6)
	rateInRange(t, fig)
	// Shape: sanitized ≤ w/o protection, recovered ≥ sanitized (summed
	// over the r sweep).
	series := make(map[string]Series)
	for _, s := range fig.Series {
		series[s.Name] = s
	}
	for _, cityName := range []string{"beijing", "nyc"} {
		sum := func(name string) float64 {
			total := 0.0
			for _, y := range series[cityName+":"+name].Y {
				total += y
			}
			return total
		}
		plain, san, rec := sum("w/o protection"), sum("sanitized"), sum("recovered")
		if san >= plain {
			t.Errorf("%s: sanitization did not reduce success (%.2f vs %.2f)", cityName, san, plain)
		}
		if rec <= san {
			t.Errorf("%s: recovery did not restore success (%.2f vs %.2f)", cityName, rec, san)
		}
	}
}

func TestFig4(t *testing.T) {
	fig, err := Fig4(sharedEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 12)
	rateInRange(t, fig)
	// Shape: for every dataset, eps=0.1 protects at least as well as
	// eps=1.0 overall.
	series := make(map[string]Series)
	for _, s := range fig.Series {
		series[s.Name] = s
	}
	for _, ds := range allDatasets {
		sum := func(name string) float64 {
			total := 0.0
			for _, y := range series[ds+":"+name].Y {
				total += y
			}
			return total
		}
		if sum("eps=0.1") > sum("eps=1.0")+0.10*4 {
			t.Errorf("%s: eps=0.1 (%v) should not exceed eps=1.0 (%v)", ds, sum("eps=0.1"), sum("eps=1.0"))
		}
		if sum("eps=1.0") > sum("w/o protection")+0.10*4 {
			t.Errorf("%s: protected above plain", ds)
		}
	}
}

func TestFig5(t *testing.T) {
	fig, err := Fig5(sharedEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 16)
	rateInRange(t, fig)
	// Shape: success at k=50 must not exceed success at k=2 per series.
	for _, s := range fig.Series {
		if s.Y[len(s.Y)-1] > s.Y[0]+0.10 {
			t.Errorf("series %q: success grew with k (%v -> %v)", s.Name, s.Y[0], s.Y[len(s.Y)-1])
		}
	}
}

func TestFig6(t *testing.T) {
	fig, err := Fig6(sharedEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 8)
	rateInRange(t, fig)
	for _, s := range fig.Series {
		// CDFs are monotone and end at 1 (every area ≤ πr²).
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1]-1e-9 {
				t.Errorf("series %q CDF not monotone", s.Name)
			}
		}
		if s.Y[len(s.Y)-1] < 1-1e-9 {
			t.Errorf("series %q CDF does not reach 1 at πr²: %v", s.Name, s.Y[len(s.Y)-1])
		}
	}
}

func TestFig7(t *testing.T) {
	fig, err := Fig7(sharedEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 4)
	for _, s := range fig.Series {
		if s.Y[len(s.Y)-1] > s.Y[0]+1e-9 {
			t.Errorf("series %q: area grew with more anchors (%v -> %v)", s.Name, s.Y[0], s.Y[len(s.Y)-1])
		}
		for i, y := range s.Y {
			if y < 0 || y > 3.15 { // πr² = 12.57 km²; we expect well below
				t.Errorf("series %q point %d = %v km² implausible", s.Name, i, y)
			}
		}
	}
}

func TestFig8(t *testing.T) {
	fig, err := Fig8(sharedEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	rateInRange(t, fig)
	var single, pair Series
	for _, s := range fig.Series {
		if s.Name == "single release" {
			single = s
		} else {
			pair = s
		}
	}
	sumS, sumP := 0.0, 0.0
	for i := range single.Y {
		sumS += single.Y[i]
		sumP += pair.Y[i]
	}
	if sumP < sumS {
		t.Errorf("two-release attack (%v) below single (%v)", sumP, sumS)
	}
}

func TestFig9And10(t *testing.T) {
	env := sharedEnv()
	fig9, err := Fig9(env)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig9, 8)
	rateInRange(t, fig9)
	for _, s := range fig9.Series {
		if s.Y[len(s.Y)-1] > s.Y[0]+0.10 {
			t.Errorf("fig9 series %q: success grew with beta", s.Name)
		}
	}
	fig10, err := Fig10(env)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig10, 8)
	rateInRange(t, fig10)
	for _, s := range fig10.Series {
		for i, y := range s.Y {
			if y < 0.3 {
				t.Errorf("fig10 series %q point %d: Jaccard %v collapsed", s.Name, i, y)
			}
		}
	}
}

func TestFig11And12(t *testing.T) {
	env := sharedEnv()
	fig11, err := Fig11(env)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig11, 10)
	rateInRange(t, fig11)
	fig12, err := Fig12(env)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig12, 10)
	rateInRange(t, fig12)
	// Utility must improve with ε for every series.
	for _, s := range fig12.Series {
		if s.Y[len(s.Y)-1] < s.Y[0]-0.05 {
			t.Errorf("fig12 series %q: utility fell with eps (%v -> %v)", s.Name, s.Y[0], s.Y[len(s.Y)-1])
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	ids := OrderedIDs()
	if len(reg) != len(ids) {
		t.Errorf("registry has %d entries, ordered list %d", len(reg), len(ids))
	}
	for _, id := range ids {
		if reg[id] == nil {
			t.Errorf("missing driver %q", id)
		}
	}
}

func TestEnvUnknownNames(t *testing.T) {
	env := NewEnv(Config{Seed: 1})
	if _, err := env.City("atlantis"); err == nil {
		t.Error("unknown city accepted")
	}
	if _, err := env.Dataset("nowhere"); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := env.Service("atlantis"); err == nil {
		t.Error("unknown service accepted")
	}
}

func TestEnvDefaults(t *testing.T) {
	env := NewEnv(Config{})
	cfg := env.Config()
	if cfg.Scale != ScaleQuick || cfg.Locations != 120 {
		t.Errorf("defaults = %+v", cfg)
	}
	full := NewEnv(Config{Scale: ScaleFull})
	if full.Config().Locations != 1000 {
		t.Errorf("full locations = %d", full.Config().Locations)
	}
}

func TestFigSeq(t *testing.T) {
	fig, err := FigSeq(sharedEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	rateInRange(t, fig)
	var single, seq Series
	for _, s := range fig.Series {
		if s.Name == "single release" {
			single = s
		} else {
			seq = s
		}
	}
	for i := range single.Y {
		if seq.Y[i] < single.Y[i]-1e-9 {
			t.Errorf("run length %v: sequence %v below single %v",
				single.X[i], seq.Y[i], single.Y[i])
		}
	}
}

func TestFigBudget(t *testing.T) {
	fig, err := FigBudget(sharedEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	rateInRange(t, fig)
	var unlimited, enforced Series
	for _, s := range fig.Series {
		if s.Name == "no budget" {
			unlimited = s
		} else {
			enforced = s
		}
	}
	last := len(enforced.Y) - 1
	for i := range unlimited.Y {
		// The baseline ignores the budget axis, so it must be flat.
		if unlimited.Y[i] != unlimited.Y[0] {
			t.Errorf("baseline not flat: %v", unlimited.Y)
		}
		// Enforcement can only remove releases from the adversary's view.
		if enforced.Y[i] > unlimited.Y[i]+1e-9 {
			t.Errorf("k=%v: enforced %v exceeds unthrottled %v",
				enforced.X[i], enforced.Y[i], unlimited.Y[i])
		}
	}
	// A window covering the whole run makes enforcement a no-op: the
	// adversary sees exactly the baseline runs.
	if enforced.X[last] != 6 || enforced.Y[last] != unlimited.Y[last] {
		t.Errorf("k=6 should match the unthrottled attack: %v vs %v",
			enforced.Y[last], unlimited.Y[last])
	}
	// The tightest budget must not leak more than the loosest.
	if enforced.Y[0] > enforced.Y[last]+1e-9 {
		t.Errorf("k=1 leaks %v > k=6 %v", enforced.Y[0], enforced.Y[last])
	}
	t.Logf("budget enforcement result:\n%s", fig.String())
}

func TestFigureCSV(t *testing.T) {
	fig := &Figure{
		ID: "t",
		Series: []Series{
			{Name: "a,b", X: []float64{1, 2}, Y: []float64{0.5, 0.25}},
		},
	}
	out := fig.CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "figure,series,x,y" {
		t.Errorf("header = %q", lines[0])
	}
	// The comma in the series name must be quoted.
	if !strings.Contains(lines[1], `"a,b"`) {
		t.Errorf("series name not CSV-escaped: %q", lines[1])
	}
}

func TestFigRobust(t *testing.T) {
	fig, err := FigRobust(sharedEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 6)
	rateInRange(t, fig)
	series := make(map[string]Series)
	for _, s := range fig.Series {
		series[s.Name] = s
	}
	for _, ds := range defenseDatasets {
		sum := func(name string) float64 {
			total := 0.0
			for _, y := range series[ds+":"+name].Y {
				total += y
			}
			return total
		}
		if sum("defense") >= sum("w/o protection") {
			t.Errorf("%s: defense did not reduce success", ds)
		}
		// The interesting measurement: whether recovery beats the bare
		// defense. Either outcome is valid; it just must stay bounded by
		// the unprotected rate (plus sampling noise).
		if sum("defense+recovery") > sum("w/o protection")+0.5 {
			t.Errorf("%s: recovery exceeds unprotected by too much", ds)
		}
	}
	t.Logf("robustness result:\n%s", fig.String())
}

func TestFigureStringSparseSeries(t *testing.T) {
	fig := &Figure{
		ID:     "sparse",
		Title:  "sparse series",
		XLabel: "x",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{0.1, 0.2}},
			{Name: "b", X: []float64{2, 3}, Y: []float64{0.5, 0.6}},
		},
		Notes: []string{"a note"},
	}
	out := fig.String()
	if !strings.Contains(out, "-") {
		t.Errorf("missing placeholder for absent point:\n%s", out)
	}
	if !strings.Contains(out, "note: a note") {
		t.Errorf("missing note:\n%s", out)
	}
	empty := &Figure{ID: "e", Title: "empty"}
	if !strings.Contains(empty.String(), "(no data)") {
		t.Error("empty figure should say so")
	}
}

func TestEnvDatasetDeterministicAndCached(t *testing.T) {
	env := sharedEnv()
	a, err := env.Dataset(DatasetBJRandom)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.Dataset(DatasetBJRandom)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("dataset not cached")
	}
	if len(a) != env.Config().Locations {
		t.Errorf("dataset size %d", len(a))
	}
}

func TestEnvRecovererCached(t *testing.T) {
	env := sharedEnv()
	r1, err := env.Recoverer("beijing", 500)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := env.Recoverer("beijing", 500)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("recoverer not cached")
	}
}
