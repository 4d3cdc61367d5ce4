package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopStall drives a handler that stalls two requests for 200 ms,
// occupying both senders: no arrival may be dropped, and the operations
// that came due during the stall must carry it in their latency.
func TestOpenLoopStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := hits.Add(1); n == 41 || n == 42 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	c := newCaller(srv.URL, 1)
	defer c.close()
	p := makePrincipals(1, 1)[0]
	do := func(ctx context.Context, i int) (opKind, int, error) {
		status, _, err := c.call(ctx, http.MethodGet, "/x", "", nil, p, opID{phase: phaseFixed, i: i}, false)
		return opFreq, status, err
	}

	const rate, d = 400.0, time.Second
	ss := openLoop(context.Background(), rate, d, genConns, do)
	if len(ss) != 400 || hits.Load() != 400 {
		t.Fatalf("sent %d operations (%d reached the server), want rate × duration = 400", len(ss), hits.Load())
	}
	stalled := 0
	for i, s := range ss {
		if s.err != nil || s.status != http.StatusOK {
			t.Fatalf("op %d failed: %d %v", i, s.status, s.err)
		}
		if s.send < s.due || s.end < s.send {
			t.Fatalf("op %d: due %v, send %v, end %v out of order", i, s.due, s.send, s.end)
		}
		if latency(s) > stall/2 {
			stalled++
		}
	}
	// Both senders are held for 200 ms, during which 80 more operations
	// come due; they queue and carry the wait in their latency.
	if stalled < 40 {
		t.Errorf("%d operations carry the stall, want most of the 80 due during it", stalled)
	}
	st, err := summarize(ss, d, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.lateP99 < ms(stall/2) {
		t.Errorf("late p99 %.1f ms: the stall must show as lateness", st.lateP99)
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	var n atomic.Int64
	do := func(context.Context, int) (opKind, int, error) {
		n.Add(1)
		time.Sleep(time.Millisecond)
		return opFreq, http.StatusOK, nil
	}
	d := 100 * time.Millisecond
	ss := closedLoop(context.Background(), d, genConns, do)
	if int64(len(ss)) != n.Load() || len(ss) < 20 {
		t.Fatalf("%d samples for %d operations", len(ss), n.Load())
	}
	for _, s := range ss {
		if s.send >= d {
			t.Fatalf("operation sent at %v, after the %v phase", s.send, d)
		}
	}
}

func TestNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n       int
		p, want float64
	}{
		{100, 0.5, 50}, {100, 0.99, 99}, {100, 1, 100}, {100, 0.001, 1},
		{10, 0.5, 5}, {10, 0.9, 9}, {3, 0.5, 2}, {1, 0.99, 1},
	} {
		if got := nearestRank(v[:c.n], c.p); got != c.want {
			t.Errorf("nearestRank(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestQuantileTailGuard(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if q, err := quantile(v, 0.99); err != nil || q != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond it", q, err)
	}
	if _, err := quantile(v[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be rejected")
	}
	if _, err := quantile(v[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be rejected")
	}
	if _, err := summarize(make([]sample, 999), time.Second, true); err == nil {
		t.Error("a fixed-rate phase of 999 operations cannot report a p99")
	}
}

// TestFailuresMissTheLatencyLimit checks that a failed operation counts as
// missing any latency limit, however fast it failed: failing fast must not
// lower the quantiles.
func TestFailuresMissTheLatencyLimit(t *testing.T) {
	phase := func(n, failed int) []sample {
		ss := make([]sample, n)
		for i := range ss {
			ss[i] = sample{due: time.Duration(i) * time.Millisecond, send: time.Duration(i) * time.Millisecond}
			ss[i].end = ss[i].due + time.Millisecond
			if i < failed {
				ss[i].end = ss[i].due + time.Microsecond
				ss[i].err = errors.New("503")
			}
		}
		return ss
	}
	st, err := summarize(phase(2000, 1000), 3*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.p50 != 1 || !math.IsInf(st.p99, 1) {
		t.Errorf("half failed: p50 %v ms, p99 %v ms; want 1 and +Inf", st.p50, st.p99)
	}
	if _, err := summarize(phase(2000, 1001), 3*time.Second, true); err == nil {
		t.Error("a p50 that falls on a failed operation must fail the run")
	}
	if st, err := summarize(phase(2000, 5), 3*time.Second, true); err != nil || st.p50 != 1 || st.p99 != 1 {
		t.Errorf("5 of 2000 failed: p50 %v, p99 %v, %v; want 1 and 1", st.p50, st.p99, err)
	}
}
