package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
	"strings"
)

// recordFile is a results file: runs appended by -record and read by
// -compare.
type recordFile struct {
	Runs []record `json:"runs"`
}

// record is one run in a results file.
type record struct {
	Set       string             `json:"set"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// splitSet splits "path#set" into its parts; the set is empty when absent.
func splitSet(arg string) (path, set string) {
	path, set, _ = strings.Cut(arg, "#")
	return path, set
}

func readRecords(path string) (*recordFile, error) {
	var rf recordFile
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &rf, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendRecord adds a run to the results file named by "path#set".
func appendRecord(arg string, r record) error {
	path, set := splitSet(arg)
	rf, err := readRecords(path)
	if err != nil {
		return err
	}
	r.Set = set
	rf.Runs = append(rf.Runs, r)
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// loadRuns returns the untraced runs of "path[#set]" by workload, in file
// order.
func loadRuns(arg string) (map[string][]record, []string, error) {
	path, set := splitSet(arg)
	rf, err := readRecords(path)
	if err != nil {
		return nil, nil, err
	}
	byWorkload := make(map[string][]record)
	var order []string
	for _, r := range rf.Runs {
		if r.Trace || (set != "" && r.Set != set) {
			continue
		}
		if byWorkload[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("%s has no untraced runs", arg)
	}
	return byWorkload, order, nil
}

// compareFiles prints, for each workload × end-to-end metric, each side's
// median and quartiles, the pairs the change won, and a verdict. Runs pair
// up in file order, so record the two sides alternately.
func compareFiles(w io.Writer, spec *benchSpec, baseArg, changeArg string) error {
	base, order, err := loadRuns(baseArg)
	if err != nil {
		return err
	}
	change, _, err := loadRuns(changeArg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-13s %24s %24s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, wl := range order {
		if change[wl] == nil {
			fmt.Fprintf(w, "%-10s missing from %s\n", wl, changeArg)
			continue
		}
		bf, cf := failures(base[wl]), failures(change[wl])
		fmt.Fprintf(w, "%-10s %-13s %24d %24d\n", wl, "failed ops", bf, cf)
		for _, m := range spec.EndToEnd {
			b, c := values(base[wl], m.Name), values(change[wl], m.Name)
			v := judge(b, c, bf, cf, m.Better, m.Bound)
			fmt.Fprintf(w, "%-10s %-13s %24s %24s %3d/%-2d  %s\n", wl, m.Name,
				fmtSpread(b), fmtSpread(c), v.wins, v.pairs, v.verdict)
		}
	}
	return nil
}

func values(rs []record, metric string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.Metrics[metric]
	}
	return v
}

// failures is the number of failed operations over the runs.
func failures(rs []record) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func fmtSpread(v []float64) string {
	q := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q[0], q[2])
}

// judgement is the outcome of comparing two sets of runs of one metric.
type judgement struct {
	wins, pairs int
	verdict     string
}

// judge applies the rule for claiming a change: "improved" needs at least
// 10 pairs, wins in at least 9/10 of them (ties count for neither), and a
// median gap larger than the base's interquartile range. "regressed" is a
// median worse by more than the metric's bound, or more failed operations
// than the base's, whatever the metric reads: a gain does not count when
// more operations fail. A base whose spread exceeds the bound leaves the
// metric "unresolved" unless every change run beats every base run;
// otherwise it is "unchanged".
func judge(base, change []float64, baseFailed, changeFailed int, better string, bound float64) judgement {
	s := -1.0
	if better == "higher" {
		s = 1
	}
	j := judgement{pairs: min(len(base), len(change))}
	for i := range j.pairs {
		if s*(change[i]-base[i]) > 0 {
			j.wins++
		}
	}
	mb, mc := median(base), median(change)
	q := quartiles(base)
	iqr := q[2] - q[0]
	gain := s * (mc - mb)
	allBetter := len(base) > 0 && len(change) > 0
	for _, c := range change {
		for _, b := range base {
			if s*(c-b) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case changeFailed > baseFailed:
		j.verdict = "regressed"
	case j.pairs >= 10 && 10*j.wins >= 9*j.pairs && gain > iqr:
		j.verdict = "improved"
	case gain < -bound*math.Abs(mb):
		j.verdict = "regressed"
	case iqr > bound*math.Abs(mb) && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(v, n=4), whose default "exclusive" method the
// benchmark's spread is defined with. With one value all three are it.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
