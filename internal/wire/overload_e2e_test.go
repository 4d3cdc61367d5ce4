package wire

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/poi"
)

// TestLBSHistoryUserCapBoundsFlood floods an LBS with one-shot unique
// userIds — the cheapest memory-exhaustion attack against the history
// map — and asserts the lbs.history_users gauge never exceeds the cap,
// while a steadily active user survives the entire flood (second-chance
// eviction spares touched entries).
func TestLBSHistoryUserCapBoundsFlood(t *testing.T) {
	const cap = 8
	city, svc := wireFixture(t)
	ts, client := newLBSTestServer(t, WithHistoryUsers(cap))
	ctx := context.Background()

	f := svc.Freq(city.RandomLocations(1, 41)[0], 900)
	rel := func(user string) ReleaseRequest {
		return ReleaseRequest{UserID: user, Freq: f, R: 900}
	}

	if _, err := client.Release(ctx, rel("resident")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := client.Release(ctx, rel(fmt.Sprintf("flood-%d", i))); err != nil {
			t.Fatalf("flood release %d: %v", i, err)
		}
		// The resident keeps releasing — more often than one queue
		// rotation (cap-1 evictions) — so its second-chance bit is
		// always set when it reaches the front and eviction passes it
		// over.
		if i%3 == 0 {
			if _, err := client.Release(ctx, rel("resident")); err != nil {
				t.Fatal(err)
			}
		}
		if snap := fetchSnapshot(t, ts.URL); snap.Counters[MetricLBSHistoryUsers] > cap {
			t.Fatalf("after flood %d: %s = %d, cap is %d",
				i, MetricLBSHistoryUsers, snap.Counters[MetricLBSHistoryUsers], cap)
		}
	}

	hist, err := client.Releases(ctx, "resident")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Releases) == 0 {
		t.Error("active user evicted by one-shot flood; second-chance must spare it")
	}
	snap := fetchSnapshot(t, ts.URL)
	if got := snap.Counters[MetricLBSHistoryUsers]; got == 0 || got > cap {
		t.Errorf("%s = %d, want in [1, %d]", MetricLBSHistoryUsers, got, cap)
	}
}

// TestLBSHistoryCapIsTenantFair: one tenant's flood of fresh userIds
// must evict its own histories, not another tenant's. Bob stores one
// release, alice releases under 20 fresh userIds against a cap of 8,
// and bob's read must still return his release.
func TestLBSHistoryCapIsTenantFair(t *testing.T) {
	const cap = 8
	ts, _ := newLBSTestServer(t, WithHistoryUsers(cap), WithAuth(mustKeyring(t, "alice", "bob")))
	alice := NewLBSClient(ts.URL, ts.Client(), WithSigningKey("alice", testKey('A')))
	bob := NewLBSClient(ts.URL, ts.Client(), WithSigningKey("bob", testKey('B')))
	ctx := context.Background()
	rel := testRelease(t, "bob-user")
	if _, err := bob.Release(ctx, rel); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rel.UserID = fmt.Sprintf("alice-%d", i)
		if _, err := alice.Release(ctx, rel); err != nil {
			t.Fatal(err)
		}
	}
	if got := fetchSnapshot(t, ts.URL).Counters[MetricLBSHistoryUsers]; got != cap {
		t.Errorf("%s = %d, want the cap %d", MetricLBSHistoryUsers, got, cap)
	}
	if got := releaseRadii(t, bob, "bob-user"); len(got) != 1 {
		t.Errorf("bob's history holds %d releases after alice's flood, want 1", len(got))
	}
}

// TestLBSHistoryLimitBelowOneIgnored: a history limit below 1 is
// ignored like a user cap below 1, so releases are stored under the
// default limit. A limit of -1 would slice the history out of range
// after the release was charged, and a limit of 0 would store nothing.
func TestLBSHistoryLimitBelowOneIgnored(t *testing.T) {
	for _, n := range []int{0, -1} {
		_, client := newLBSTestServer(t, WithHistoryLimit(n))
		rel := testRelease(t, "u1")
		for i := 0; i < 2; i++ {
			if _, err := client.Release(context.Background(), rel); err != nil {
				t.Fatalf("limit %d: release %d: %v", n, i, err)
			}
		}
		if got := releaseRadii(t, client, "u1"); len(got) != 2 {
			t.Errorf("limit %d: history holds %d releases, want 2", n, len(got))
		}
	}
}

// slowAuditor injects fixed per-release service time, giving the
// overload e2e a realistic bottleneck to saturate.
type slowAuditor struct{ d time.Duration }

func (a slowAuditor) Audit(poi.FreqVector, float64) (bool, int) {
	time.Sleep(a.d)
	return false, 0
}

// TestOverloadE2E is the satellite-4 end-to-end: a budget-enforced,
// admission-limited LBS is saturated through the fault proxy at
// concurrency far above its limit. It asserts the three overload
// invariants together:
//
//  1. every shed is a 503 carrying a valid Retry-After (>= 1s);
//  2. no request — admitted, queued, or shed — exceeds its deadline
//     plus a scheduling grace: shedding keeps latency bounded;
//  3. the budget ledger records exactly the accepted releases — sheds
//     and transport faults leave no budget trace.
func TestOverloadE2E(t *testing.T) {
	const (
		limit       = 2
		queueLen    = 2
		queueWait   = 100 * time.Millisecond
		serviceTime = 20 * time.Millisecond
		workers     = 12 // >= 4x the admission limit
		perWorker   = 4
		deadline    = 2 * time.Second
		grace       = 2 * time.Second // CI scheduling slack
	)

	city, _ := wireFixture(t)
	clk := newBudgetClock()
	led, err := budget.Open(budget.Policy{LifetimeEps: 1e6}, t.TempDir(), budget.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })

	srv := NewLBSServer(city.M(),
		WithAuditor(slowAuditor{d: serviceTime}),
		WithAdmission(limit, queueLen, queueWait),
		WithBudget(led, 0.01, 0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// The fault proxy injects a couple of transport-level faults into the
	// storm (requests that never reach the server), and the tracking
	// transport proves no response body leaks across the mixed outcomes.
	ft := &faultTransport{base: http.DefaultTransport, script: []faultAction{actDrop, actOK, actDrop}}
	tt := &trackingTransport{base: ft}
	hc := &http.Client{Transport: tt}
	t.Cleanup(func() {
		if n := tt.open.Load(); n != 0 {
			t.Errorf("%d of %d response bodies leaked", n, tt.opened.Load())
		}
		hc.CloseIdleConnections()
	})
	client := NewLBSClient(ts.URL, hc, WithPrincipal("storm"))

	rel := testRelease(t, "storm")
	var accepted, shed, faulted atomic.Int64
	var mu sync.Mutex
	var violations []string
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				start := time.Now()
				_, err := client.Release(ctx, rel)
				elapsed := time.Since(start)
				cancel()
				var ov *OverloadedError
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.As(err, &ov):
					shed.Add(1)
					if ov.RetryAfter < time.Second {
						mu.Lock()
						violations = append(violations,
							fmt.Sprintf("shed Retry-After = %v, want >= 1s", ov.RetryAfter))
						mu.Unlock()
					}
				default:
					faulted.Add(1)
				}
				if elapsed > deadline+grace {
					mu.Lock()
					violations = append(violations,
						fmt.Sprintf("request took %v, deadline %v + grace %v", elapsed, deadline, grace))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	for _, v := range violations {
		t.Error(v)
	}
	total := accepted.Load() + shed.Load() + faulted.Load()
	if total != workers*perWorker {
		t.Errorf("outcomes = %d, want %d", total, workers*perWorker)
	}
	if accepted.Load() == 0 {
		t.Error("no release was accepted under saturation; admission must not starve everyone")
	}
	if shed.Load() == 0 {
		t.Errorf("no request was shed at concurrency %d against limit %d", workers, limit)
	}
	if faulted.Load() != 2 {
		t.Errorf("transport faults observed = %d, want 2 (scripted actDrop)", faulted.Load())
	}

	// Invariant 3: the ledger charged exactly the accepted releases —
	// sheds were rejected before any budget effect.
	if got := led.Status("storm").Releases; int64(got) != accepted.Load() {
		t.Errorf("ledger releases = %d, client-observed accepts = %d; sheds must leave no budget trace",
			got, accepted.Load())
	}

	// The server's own accounting agrees: shed counter matches the 503s
	// the clients saw, and nothing is left queued or in flight.
	waitFor(t, "admission quiesce", func() bool {
		snap := fetchSnapshot(t, ts.URL)
		return snap.Counters[MetricAdmissionInflight] == 0 && snap.Counters[MetricAdmissionQueued] == 0
	})
	snap := fetchSnapshot(t, ts.URL)
	if got := snap.Counters[MetricAdmissionShed]; int64(got) != shed.Load() {
		t.Errorf("admission.shed = %d, clients observed %d sheds", got, shed.Load())
	}
}
