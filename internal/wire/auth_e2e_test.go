package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/obs"
)

// TestAuthSpoofedPrincipalCannotTouchOtherTenant is the regression test
// for the X-Principal trust hole: with auth enabled, the budget ledger
// charges ONLY the signature-verified identity. A tenant asserting
// someone else's name — in the header, in the query parameter, or in
// the release body's userId — still spends its own budget, and an
// unsigned request asserting a name cannot reset anyone's accounting.
func TestAuthSpoofedPrincipalCannotTouchOtherTenant(t *testing.T) {
	led, err := budget.New(budget.Policy{LifetimeEps: 100})
	if err != nil {
		t.Fatal(err)
	}
	kr := mustKeyring(t, "alice", "mallory")
	ts, _ := newLBSTestServer(t, WithAuth(kr), WithBudget(led, 0.5, 0))
	ctx := context.Background()

	// Mallory signs as mallory but asserts alice everywhere the
	// unauthenticated fallback chain used to look.
	mallory := NewLBSClient(ts.URL, ts.Client(),
		WithSigningKey("mallory", testKey('B')), WithPrincipal("alice"))
	rel := testRelease(t, "alice") // even the body's userId says alice
	if _, err := mallory.Release(ctx, rel); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(rel)
	status, respBody := signedProbe(t, ts.URL, http.MethodPost,
		PathRelease+"?principal=alice", body,
		"mallory", testKey('B'), time.Now(), "5b00f001", func(r *http.Request) {
			r.Header.Set(HeaderPrincipal, "alice")
		})
	if status != http.StatusOK {
		t.Fatalf("spoofing release = %d: %s", status, respBody)
	}

	if st := led.Status("mallory"); st.Releases != 2 {
		t.Errorf("mallory charged %d releases, want 2 (the spoofs charged her)", st.Releases)
	}
	if st := led.Status("alice"); st.Releases != 0 || st.SpentEps != 0 {
		t.Errorf("alice's budget touched by a spoofed header: %+v", st)
	}

	// Spend some of alice's budget, then try to reset it with an
	// unsigned admin call asserting her name: 401, accounting intact.
	alice := NewLBSClient(ts.URL, ts.Client(), WithSigningKey("alice", testKey('A')))
	if _, err := alice.Release(ctx, testRelease(t, "alice")); err != nil {
		t.Fatal(err)
	}
	status, respBody = signedProbe(t, ts.URL, http.MethodPost,
		PathBudget+"/alice/reset", nil, "", nil, time.Now(), "",
		func(r *http.Request) { r.Header.Set(HeaderPrincipal, "alice") })
	assertAuthReject(t, "unsigned reset", status, respBody, authMissing)
	if st := led.Status("alice"); st.Releases != 1 {
		t.Errorf("unsigned reset changed alice's accounting: %+v", st)
	}
}

// TestAuthRejectedRequestsLeaveNoTrace extends the deny-leaves-no-trace
// invariant to the auth layer: a barrage of forged, tampered, replayed,
// and stale requests must leave the budget ledger's dumped state
// byte-identical and the release history empty — a rejected request
// never reaches the ledger or the store.
func TestAuthRejectedRequestsLeaveNoTrace(t *testing.T) {
	led, err := budget.New(budget.Policy{LifetimeEps: 100})
	if err != nil {
		t.Fatal(err)
	}
	clk := newBudgetClock()
	kr := mustKeyring(t, "alice")
	ts, _ := newLBSTestServer(t,
		WithAuth(kr, WithAuthClock(clk.Now)), WithBudget(led, 0.5, 0))
	rel := testRelease(t, "alice")
	body, _ := json.Marshal(rel)
	now := clk.Now()

	// Seed one legitimate release so the dump is non-trivial.
	status, _ := signedProbe(t, ts.URL, http.MethodPost, PathRelease, body,
		"alice", testKey('A'), now, "5eed0001", nil)
	if status != http.StatusOK {
		t.Fatalf("seed release = %d", status)
	}
	before, err := led.DumpState()
	if err != nil {
		t.Fatal(err)
	}

	// The barrage: every auth rejection class against the spend path.
	barrage := []func() (int, []byte){
		func() (int, []byte) { // unsigned
			return signedProbe(t, ts.URL, http.MethodPost, PathRelease, body, "", nil, now, "", nil)
		},
		func() (int, []byte) { // wrong key
			return signedProbe(t, ts.URL, http.MethodPost, PathRelease, body,
				"alice", testKey('Z'), now, "bad00001", nil)
		},
		func() (int, []byte) { // unknown principal
			return signedProbe(t, ts.URL, http.MethodPost, PathRelease, body,
				"eve", testKey('E'), now, "bad00002", nil)
		},
		func() (int, []byte) { // replayed nonce (5eed0001 was spent by the seed)
			return signedProbe(t, ts.URL, http.MethodPost, PathRelease, body,
				"alice", testKey('A'), now, "5eed0001", nil)
		},
		func() (int, []byte) { // stale timestamp
			return signedProbe(t, ts.URL, http.MethodPost, PathRelease, body,
				"alice", testKey('A'), now.Add(-DefaultAuthWindow-time.Minute), "bad00003", nil)
		},
		func() (int, []byte) { // tampered body
			return signedProbe(t, ts.URL, http.MethodPost, PathRelease, body,
				"alice", testKey('A'), now, "bad00004", func(r *http.Request) {
					tampered := bytes.Replace(body, []byte(`"userId"`), []byte(`"userID"`), 1)
					r.Body = nil
					r2, err := http.NewRequest(r.Method, r.URL.String(), bytes.NewReader(tampered))
					if err != nil {
						t.Fatal(err)
					}
					r2.Header = r.Header
					*r = *r2
				})
		},
	}
	for i, attack := range barrage {
		if status, b := attack(); status != http.StatusUnauthorized {
			t.Errorf("barrage %d: status %d, want 401 (%s)", i, status, b)
		}
	}

	after, err := led.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("rejected requests left a ledger trace:\n before %s\n after  %s", before, after)
	}
	if st := led.Status("alice"); st.Releases != 1 {
		t.Errorf("alice's accounting moved: %+v", st)
	}
	// History holds the seed release only.
	status, hist := signedProbe(t, ts.URL, http.MethodGet, PathReleases+"?user=alice", nil,
		"alice", testKey('A'), now, "5eed0002", nil)
	if status != http.StatusOK {
		t.Fatalf("history fetch = %d", status)
	}
	var hr ReleasesResponse
	if err := json.Unmarshal(hist, &hr); err != nil {
		t.Fatal(err)
	}
	if len(hr.Releases) != 1 {
		t.Errorf("history has %d releases, want 1", len(hr.Releases))
	}

	snap := fetchSnapshot(t, ts.URL)
	if got := snap.Counters[MetricAuthRejected]; got != uint64(len(barrage)-1) {
		t.Errorf("%s = %d, want %d", MetricAuthRejected, got, len(barrage)-1)
	}
	if got := snap.Counters[MetricAuthReplay]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricAuthReplay, got)
	}
}

// TestAuthAdmissionBudgetStacked runs all three protection layers on one
// server and proves each failure mode keeps its own status code,
// structured reason, and metric: 401 for forgeries (never occupying an
// admission slot), 503 for sheds, 429 for budget exhaustion.
func TestAuthAdmissionBudgetStacked(t *testing.T) {
	led, err := budget.New(budget.Policy{LifetimeEps: 1}) // 2 releases at 0.5
	if err != nil {
		t.Fatal(err)
	}
	city, svc := wireFixture(t)
	kr := mustKeyring(t, "alice")
	reg := obs.NewRegistry()
	led.ExportMetrics(reg)
	aud := &blockingAuditor{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := NewLBSServer(city.M(),
		WithMetrics(reg),
		WithAuth(kr),
		WithAdmission(1, 0, 50*time.Millisecond),
		WithBudget(led, 0.5, 0),
		WithAuditor(aud))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewLBSClient(ts.URL, ts.Client(), WithSigningKey("alice", testKey('A')))
	ctx := context.Background()
	rel := ReleaseRequest{UserID: "alice", Freq: svc.Freq(city.RandomLocations(1, 91)[0], 900), R: 900}

	// Pin the single admission slot with a signed in-flight release.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := client.Release(ctx, rel); err != nil {
			t.Errorf("pinned release: %v", err)
		}
	}()
	<-aud.entered

	// Saturated: a signed request is shed with 503 + structured reason...
	_, err = client.Release(ctx, rel)
	var overloaded *OverloadedError
	if !errors.As(err, &overloaded) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated signed release = %v, want OverloadedError", err)
	}
	// ...while a forged request is rejected 401 WITHOUT occupying the
	// admission machinery — auth sits outside the gate.
	forged := NewLBSClient(ts.URL, ts.Client(), WithSigningKey("alice", testKey('Z')))
	_, err = forged.Release(ctx, rel)
	var unauth *UnauthorizedError
	if !errors.As(err, &unauth) || unauth.Reason != string(authBadSignature) {
		t.Fatalf("forged release under saturation = %v, want UnauthorizedError(bad_signature)", err)
	}

	close(aud.release)
	wg.Wait()

	// Budget: one more release fits (2 × 0.5 = 1.0), the third is 429.
	if _, err := client.Release(ctx, rel); err != nil {
		t.Fatal(err)
	}
	_, err = client.Release(ctx, rel)
	var denied *BudgetDeniedError
	if !errors.As(err, &denied) || denied.State == nil || denied.State.Denial != string(budget.DenyLifetime) {
		t.Fatalf("exhausted release = %v, want BudgetDeniedError(lifetime)", err)
	}

	// Three layers, three disjoint failure signals.
	snap := fetchSnapshot(t, ts.URL)
	for metric, want := range map[string]uint64{
		MetricAuthRejected:  1,
		MetricAdmissionShed: 1,
		budget.MetricDenies: 1,
		budget.MetricSpends: 2,
		MetricAuthReplay:    0,
	} {
		if got := snap.Counters[metric]; got != want {
			t.Errorf("%s = %d, want %d", metric, got, want)
		}
	}
	// The shed and the denial were both signed OK; only the forgery was
	// not. 4 verified = pin + shed + 2 budget attempts... plus metrics
	// scrape is unsigned/exempt, so auth.ok counts exactly the API calls.
	if got := snap.Counters[MetricAuthOK]; got != 4 {
		t.Errorf("%s = %d, want 4", MetricAuthOK, got)
	}
}

// TestLBSClientNeverRetries401 mirrors the 429 classification test: a
// 401 is terminal — no key will appear within a backoff window, and
// retrying a forgery only burns attempts — so exactly one attempt, no
// retry counter movement.
func TestLBSClientNeverRetries401(t *testing.T) {
	reg := obs.NewRegistry()
	ts, _ := newLBSTestServer(t, WithAuth(mustKeyring(t, "alice")))
	ft := &faultTransport{base: http.DefaultTransport}
	tt := &trackingTransport{base: ft}
	hc := &http.Client{Transport: tt}
	// No signing key configured: the server's real 401 is the fault.
	client := NewLBSClient(ts.URL, hc,
		WithRetries(3), fastBackoff(), WithClientMetrics(reg))
	t.Cleanup(func() {
		if n := tt.open.Load(); n != 0 {
			t.Errorf("%d response bodies leaked", n)
		}
		hc.CloseIdleConnections()
	})

	_, err := client.Release(context.Background(), testRelease(t, "alice"))
	if !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("want ErrUnauthorized, got %v", err)
	}
	var unauth *UnauthorizedError
	if !errors.As(err, &unauth) || unauth.Reason != string(authMissing) {
		t.Fatalf("typed 401 reason missing: %v", err)
	}
	if got := ft.callCount(); got != 1 {
		t.Errorf("401 was retried: %d attempts, want 1", got)
	}
	if got := reg.Counter(MetricClientRetries).Value(); got != 0 {
		t.Errorf("retry counter = %d, want 0", got)
	}
	if got := reg.Counter(MetricClientFailures).Value(); got != 1 {
		t.Errorf("failure counter = %d, want 1", got)
	}
}

// TestGSPClientNeverRetries401 covers the same classification through
// the fault proxy on the GSP path (the classifier is in the shared
// clientCore; act401 synthesizes the server's structured 401).
func TestGSPClientNeverRetries401(t *testing.T) {
	reg := obs.NewRegistry()
	client, ft, _ := faultyGSPClient(t, []faultAction{act401, actOK}, 0,
		WithRetries(3), fastBackoff(), WithClientMetrics(reg))

	_, err := client.Stats(context.Background())
	if !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("want ErrUnauthorized, got %v", err)
	}
	var unauth *UnauthorizedError
	if !errors.As(err, &unauth) || unauth.Reason != "bad_signature" {
		t.Fatalf("typed 401 reason = %v", err)
	}
	if got := ft.callCount(); got != 1 {
		t.Errorf("401 was retried: %d attempts, want 1", got)
	}
	if got := reg.Counter(MetricClientRetries).Value(); got != 0 {
		t.Errorf("retry counter = %d, want 0", got)
	}
}
