package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/obs"
)

// budgetClock is the e2e tests' deterministic time source: the window
// slides only when the test advances it, so nothing sleeps.
type budgetClock struct {
	mu sync.Mutex
	t  time.Time
}

func newBudgetClock() *budgetClock {
	return &budgetClock{t: time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *budgetClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *budgetClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testRelease(t *testing.T, userID string) ReleaseRequest {
	t.Helper()
	city, svc := wireFixture(t)
	l := city.RandomLocations(1, 77)[0]
	return ReleaseRequest{
		UserID: userID,
		Freq:   svc.Freq(l, 900),
		R:      900,
		Time:   time.Date(2026, 2, 1, 9, 0, 0, 0, time.UTC),
	}
}

// TestBudgetEnforcedReleaseE2E drives the full budget story over a real
// socket: a principal whose window budget covers exactly k releases gets
// k successes with shrinking remainders, then a 429 whose body reports
// the spent/remaining (ε, δ); after the sliding window advances (fake
// clock) the next release succeeds; and the ledger state survives a
// snapshot + crash-style restart bit-identically.
func TestBudgetEnforcedReleaseE2E(t *testing.T) {
	dir := t.TempDir()
	clk := newBudgetClock()
	policy := budget.Policy{
		LifetimeEps: 100, LifetimeDelta: 1e-3,
		Window: 24 * time.Hour, WindowEps: 1.5, WindowDelta: 1e-3,
	}
	led, err := budget.Open(policy, dir, budget.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}

	const relEps, relDelta = 0.5, 1e-6 // k = 3 releases per window
	reg := obs.NewRegistry()
	led.ExportMetrics(reg)
	ts, client := newLBSTestServer(t,
		WithBudget(led, relEps, relDelta), WithMetrics(reg))
	ctx := context.Background()
	rel := testRelease(t, "alice")

	// Exactly k granted releases, window remainder shrinking to zero.
	for i := 1; i <= 3; i++ {
		resp, err := client.Release(ctx, rel)
		if err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
		if !resp.Accepted || resp.Budget == nil {
			t.Fatalf("release %d: %+v", i, resp)
		}
		b := resp.Budget
		wantWin := 1.5 - relEps*float64(i)
		if math.Abs(b.WindowRemainingEps-wantWin) > 1e-9 || b.Releases != uint64(i) {
			t.Fatalf("release %d budget = %+v, want window remaining %v", i, b, wantWin)
		}
	}

	// Release k+1: a 429 carrying the full accounting.
	_, err = client.Release(ctx, rel)
	if !errors.Is(err, ErrBudgetDenied) {
		t.Fatalf("release 4 error = %v, want ErrBudgetDenied", err)
	}
	var denied *BudgetDeniedError
	if !errors.As(err, &denied) || denied.State == nil {
		t.Fatalf("429 carries no budget state: %v", err)
	}
	st := denied.State
	if st.Denial != string(budget.DenyWindow) ||
		math.Abs(st.SpentEps-1.5) > 1e-9 ||
		math.Abs(st.SpentDelta-3e-6) > 1e-12 ||
		math.Abs(st.RemainingEps-98.5) > 1e-9 ||
		st.WindowRemainingEps > 1e-9 ||
		st.RetryAfterSeconds != (24*time.Hour).Seconds() {
		t.Fatalf("denial state = %+v", st)
	}
	// The denied release left no trace in the history.
	if hist, err := client.Releases(ctx, "alice"); err != nil || len(hist.Releases) != 3 {
		t.Fatalf("history after denial: %d releases (err=%v)", len(hist.Releases), err)
	}

	// The window slides: a day later the oldest spends have expired.
	clk.Advance(24 * time.Hour)
	if resp, err := client.Release(ctx, rel); err != nil || !resp.Accepted {
		t.Fatalf("release after window slid: %v (%+v)", err, resp)
	}

	// Admin status endpoint agrees with the ledger.
	adminSt, err := client.BudgetStatus(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if adminSt.Releases != 4 || math.Abs(adminSt.SpentEps-2.0) > 1e-9 {
		t.Fatalf("admin status = %+v", adminSt)
	}

	// Crash-style restart: snapshot, more spends into the log, reopen
	// without Close, and require byte-identical state.
	if err := led.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Release(ctx, rel); err != nil {
		t.Fatal(err)
	}
	before, err := led.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	led2, err := budget.Open(policy, dir, budget.WithClock(clk.Now))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	after, err := led2.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("ledger state not bit-identical across restart:\n before %s\n after  %s", before, after)
	}
	if err := led2.Close(); err != nil {
		t.Fatal(err)
	}

	// Admin reset refills the principal.
	resetSt, err := client.BudgetReset(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if resetSt.SpentEps != 0 || resetSt.Releases != 0 {
		t.Fatalf("post-reset state = %+v", resetSt)
	}
	if resp, err := client.Release(ctx, rel); err != nil || !resp.Accepted {
		t.Fatalf("release after reset: %v (%+v)", err, resp)
	}

	// The shared registry saw the ledger's counters and latency.
	snap := fetchSnapshot(t, ts.URL)
	if got := snap.Counters[budget.MetricSpends]; got != 6 {
		t.Errorf("%s = %d, want 6", budget.MetricSpends, got)
	}
	if got := snap.Counters[budget.MetricDenies]; got != 1 {
		t.Errorf("%s = %d, want 1", budget.MetricDenies, got)
	}
	if lat, ok := snap.Latencies[budget.LatencyDecision]; !ok || lat.Count != 7 {
		t.Errorf("decision latency = %+v", snap.Latencies)
	}
}

// TestBudgetPrincipalResolution checks the charge-identity precedence:
// X-Principal header, then ?principal= query parameter, then userId.
func TestBudgetPrincipalResolution(t *testing.T) {
	led, err := budget.New(budget.Policy{LifetimeEps: 100})
	if err != nil {
		t.Fatal(err)
	}
	ts, client := newLBSTestServer(t, WithBudget(led, 0.5, 0))
	ctx := context.Background()
	rel := testRelease(t, "body-user")
	body, _ := json.Marshal(rel)

	post := func(path string, header string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set(HeaderPrincipal, header)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d", path, resp.StatusCode)
		}
	}
	post(PathRelease, "header-user")                         // header wins
	post(PathRelease+"?principal=query-user", "")            // query fallback
	post(PathRelease+"?principal=query-user", "header-user") // header beats query
	post(PathRelease, "")                                    // userId fallback

	for principal, want := range map[string]uint64{
		"header-user": 2, "query-user": 1, "body-user": 1,
	} {
		st, err := client.BudgetStatus(ctx, principal)
		if err != nil {
			t.Fatal(err)
		}
		if st.Releases != want {
			t.Errorf("%s charged %d releases, want %d", principal, st.Releases, want)
		}
	}
}

// TestLBSClientNeverRetries429 is the retry-classification regression
// test: a 429 budget denial must be terminal — retrying burns attempts
// against a budget that will not refill within any backoff window.
func TestLBSClientNeverRetries429(t *testing.T) {
	reg := obs.NewRegistry()
	ts, _ := newLBSTestServer(t)
	ft := &faultTransport{base: http.DefaultTransport, script: []faultAction{act429}}
	tt := &trackingTransport{base: ft}
	hc := &http.Client{Transport: tt}
	client := NewLBSClient(ts.URL, hc,
		WithRetries(3), fastBackoff(), WithClientMetrics(reg))
	t.Cleanup(func() {
		if n := tt.open.Load(); n != 0 {
			t.Errorf("%d response bodies leaked", n)
		}
		hc.CloseIdleConnections()
	})

	_, err := client.Release(context.Background(), testRelease(t, "alice"))
	if !errors.Is(err, ErrBudgetDenied) {
		t.Fatalf("want ErrBudgetDenied, got %v", err)
	}
	var denied *BudgetDeniedError
	if !errors.As(err, &denied) || denied.State == nil || denied.State.Denial != "window" {
		t.Fatalf("typed denial state missing: %v", err)
	}
	if !strings.Contains(err.Error(), "privacy budget denied") {
		t.Errorf("error hides the server message: %v", err)
	}
	if got := ft.callCount(); got != 1 {
		t.Errorf("429 was retried: %d attempts, want 1", got)
	}
	if got := reg.Counter(MetricClientRetries).Value(); got != 0 {
		t.Errorf("retry counter = %d, want 0", got)
	}
	if got := reg.Counter(MetricClientFailures).Value(); got != 1 {
		t.Errorf("failure counter = %d, want 1", got)
	}
}

// TestGSPClientNeverRetries429 covers the same classification on the GSP
// client path (the fix is in the shared clientCore).
func TestGSPClientNeverRetries429(t *testing.T) {
	reg := obs.NewRegistry()
	client, ft, _ := faultyGSPClient(t, []faultAction{act429, actOK}, 0,
		WithRetries(3), fastBackoff(), WithClientMetrics(reg))

	_, err := client.Stats(context.Background())
	if !errors.Is(err, ErrBudgetDenied) {
		t.Fatalf("want ErrBudgetDenied, got %v", err)
	}
	if got := ft.callCount(); got != 1 {
		t.Errorf("429 was retried: %d attempts, want 1", got)
	}
	if got := reg.Counter(MetricClientRetries).Value(); got != 0 {
		t.Errorf("retry counter = %d, want 0", got)
	}
}

// TestBudgetEndpointsAbsentWithoutLedger: without WithBudget the admin
// routes do not exist.
func TestBudgetEndpointsAbsentWithoutLedger(t *testing.T) {
	ts, client := newLBSTestServer(t)
	if _, err := client.BudgetStatus(context.Background(), "alice"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("budget status on plain server = %v, want 404 (ErrBadRequest)", err)
	}
	resp, err := http.Get(ts.URL + PathBudget + "/alice")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET %s/alice = %d, want 404", PathBudget, resp.StatusCode)
	}
}
