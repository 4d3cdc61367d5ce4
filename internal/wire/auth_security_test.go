package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/obs"
)

// This file is the adversarial suite for the request-signing layer:
// every way an attacker can present a request that is not exactly what
// a key holder signed — forged, tampered, replayed, stale, spoofed —
// must come back 401 with a structured reason, increment auth.rejected
// or auth.replay, and reach no handler. The playbook mirrors the
// security checklists for HTTP signature schemes: signature validation,
// auth bypass on every route, replay, header injection, timestamp
// manipulation.

// signedProbe builds a request against baseURL, signs it as principal
// with key at time at, applies mutate (tampering AFTER signing — the
// attack surface), sends it, and returns the status and body.
func signedProbe(t *testing.T, baseURL, method, pathQuery string, body []byte,
	principal string, key []byte, at time.Time, nonce string,
	mutate func(*http.Request)) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, baseURL+pathQuery, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if principal != "" {
		if err := SignRequest(req, body, principal, key, at, nonce); err != nil {
			t.Fatal(err)
		}
	}
	if mutate != nil {
		mutate(req)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// assertAuthReject checks a 401 with the expected structured reason.
func assertAuthReject(t *testing.T, name string, status int, body []byte, wantReason authReason) {
	t.Helper()
	if status != http.StatusUnauthorized {
		t.Errorf("%s: status %d, want 401 (body %s)", name, status, body)
		return
	}
	var e AuthErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Errorf("%s: 401 body is not JSON: %q", name, body)
		return
	}
	if e.Reason != string(wantReason) {
		t.Errorf("%s: reason %q, want %q", name, e.Reason, wantReason)
	}
	if e.Error == "" {
		t.Errorf("%s: empty error message", name)
	}
}

func TestAuthForgedAndTamperedRequestsRejected(t *testing.T) {
	clk := newBudgetClock()
	ts, _ := newGSPTestServer(t,
		WithAuth(mustKeyring(t, "alice", "bob"), WithAuthClock(clk.Now)))
	now := clk.Now()
	aliceKey, bobKey := testKey('A'), testKey('B')
	freq := PathFreq + "?x=1&y=2&r=300"
	nonceN := 0
	nonce := func() string {
		nonceN++
		return fmt.Sprintf("feed%08x", nonceN)
	}

	// The control: a correctly signed request succeeds.
	if status, body := signedProbe(t, ts.URL, http.MethodGet, freq, nil,
		"alice", aliceKey, now, nonce(), nil); status != http.StatusOK {
		t.Fatalf("control signed request = %d: %s", status, body)
	}

	cases := []struct {
		name   string
		reason authReason
		run    func() (int, []byte)
	}{
		{"unsigned request", authMissing, func() (int, []byte) {
			return signedProbe(t, ts.URL, http.MethodGet, freq, nil, "", nil, now, "", nil)
		}},
		{"garbage header", authMalformed, func() (int, []byte) {
			return signedProbe(t, ts.URL, http.MethodGet, freq, nil, "", nil, now, "",
				func(r *http.Request) { r.Header.Set(HeaderAuth, "Bearer hunter2") })
		}},
		{"forged signature", authBadSignature, func() (int, []byte) {
			return signedProbe(t, ts.URL, http.MethodGet, freq, nil,
				"alice", aliceKey, now, nonce(), func(r *http.Request) {
					v := r.Header.Get(HeaderAuth)
					r.Header.Set(HeaderAuth, v[:len(v)-64]+strings.Repeat("0", 64))
				})
		}},
		{"wrong key", authBadSignature, func() (int, []byte) {
			// Bob's key signing a claim to be alice.
			return signedProbe(t, ts.URL, http.MethodGet, freq, nil,
				"alice", bobKey, now, nonce(), nil)
		}},
		{"unknown principal", authBadSignature, func() (int, []byte) {
			// Externally indistinguishable from a wrong key — the
			// split exists only in the auth.unknown_principal metric
			// (see TestAuthNoPrincipalEnumerationOracle).
			return signedProbe(t, ts.URL, http.MethodGet, freq, nil,
				"mallory", testKey('M'), now, nonce(), nil)
		}},
		{"tampered query", authBadSignature, func() (int, []byte) {
			return signedProbe(t, ts.URL, http.MethodGet, freq, nil,
				"alice", aliceKey, now, nonce(), func(r *http.Request) {
					r.URL.RawQuery = "x=1&y=2&r=9000"
				})
		}},
		{"tampered path", authBadSignature, func() (int, []byte) {
			return signedProbe(t, ts.URL, http.MethodGet, freq, nil,
				"alice", aliceKey, now, nonce(), func(r *http.Request) {
					r.URL.Path = PathQuery
				})
		}},
		{"tampered method", authBadSignature, func() (int, []byte) {
			return signedProbe(t, ts.URL, http.MethodGet, freq, nil,
				"alice", aliceKey, now, nonce(), func(r *http.Request) {
					r.Method = http.MethodPost
				})
		}},
		{"principal swapped after signing", authBadSignature, func() (int, []byte) {
			// Re-label alice's valid signature as bob's: the principal is
			// inside the canonical string, so the signature no longer
			// verifies under bob's key.
			return signedProbe(t, ts.URL, http.MethodGet, freq, nil,
				"alice", aliceKey, now, nonce(), func(r *http.Request) {
					r.Header.Set(HeaderAuth, strings.Replace(
						r.Header.Get(HeaderAuth), "principal=alice", "principal=bob", 1))
				})
		}},
	}
	for _, tc := range cases {
		status, body := tc.run()
		assertAuthReject(t, tc.name, status, body, tc.reason)
	}

	snap := fetchSnapshot(t, ts.URL)
	if got := snap.Counters[MetricAuthRejected]; got != uint64(len(cases)) {
		t.Errorf("%s = %d, want %d", MetricAuthRejected, got, len(cases))
	}
	if got := snap.Counters[MetricAuthOK]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricAuthOK, got)
	}
	if got := snap.Counters[MetricAuthReplay]; got != 0 {
		t.Errorf("%s = %d, want 0", MetricAuthReplay, got)
	}
	if got := snap.Counters[MetricAuthUnknownPrincipal]; got != 1 {
		t.Errorf("%s = %d, want 1 (the mallory probe)", MetricAuthUnknownPrincipal, got)
	}
}

// TestAuthNoPrincipalEnumerationOracle proves the 401 surface leaks
// nothing about which principals are registered: a wrong-key request
// for an existing principal and a request for a nonexistent principal
// come back with byte-identical bodies (the dummy-key HMAC already
// equalizes the work/timing). The distinction survives only in the
// server-side auth.unknown_principal counter.
func TestAuthNoPrincipalEnumerationOracle(t *testing.T) {
	clk := newBudgetClock()
	ts, _ := newGSPTestServer(t,
		WithAuth(mustKeyring(t, "alice"), WithAuthClock(clk.Now)))
	now := clk.Now()
	freq := PathFreq + "?x=1&y=2&r=300"

	wrongKeyStatus, wrongKeyBody := signedProbe(t, ts.URL, http.MethodGet, freq, nil,
		"alice", testKey('Z'), now, "0bace1e0", nil)
	unknownStatus, unknownBody := signedProbe(t, ts.URL, http.MethodGet, freq, nil,
		"mallory", testKey('Z'), now, "0bace1e0", nil)

	if wrongKeyStatus != http.StatusUnauthorized || unknownStatus != http.StatusUnauthorized {
		t.Fatalf("statuses = %d, %d, want 401, 401", wrongKeyStatus, unknownStatus)
	}
	if !bytes.Equal(wrongKeyBody, unknownBody) {
		t.Errorf("401 bodies differ — principal-enumeration oracle:\n registered: %s\n unknown:    %s",
			wrongKeyBody, unknownBody)
	}
	assertAuthReject(t, "registered principal, wrong key", wrongKeyStatus, wrongKeyBody, authBadSignature)
	assertAuthReject(t, "unknown principal", unknownStatus, unknownBody, authBadSignature)

	snap := fetchSnapshot(t, ts.URL)
	if got := snap.Counters[MetricAuthUnknownPrincipal]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricAuthUnknownPrincipal, got)
	}
	if got := snap.Counters[MetricAuthRejected]; got != 2 {
		t.Errorf("%s = %d, want 2", MetricAuthRejected, got)
	}
}

func TestAuthTamperedBodyRejected(t *testing.T) {
	clk := newBudgetClock()
	ts, _ := newLBSTestServer(t,
		WithAuth(mustKeyring(t, "alice"), WithAuthClock(clk.Now)))
	body, _ := json.Marshal(testRelease(t, "alice"))

	// Control: the signed body goes through.
	status, respBody := signedProbe(t, ts.URL, http.MethodPost, PathRelease, body,
		"alice", testKey('A'), clk.Now(), "0d15ea5e", nil)
	if status != http.StatusOK {
		t.Fatalf("control release = %d: %s", status, respBody)
	}

	// Swap in a different (still valid) body after signing: the body
	// hash in the canonical string catches it.
	other, _ := json.Marshal(testRelease(t, "eve"))
	status, respBody = signedProbe(t, ts.URL, http.MethodPost, PathRelease, body,
		"alice", testKey('A'), clk.Now(), "0d15ea5f", func(r *http.Request) {
			r.Body = nil
			r2, err := http.NewRequest(r.Method, r.URL.String(), bytes.NewReader(other))
			if err != nil {
				t.Fatal(err)
			}
			r2.Header = r.Header
			*r = *r2
		})
	assertAuthReject(t, "tampered body", status, respBody, authBadSignature)

	// The tampered release left no history trace for either user.
	for _, user := range []string{"alice", "eve"} {
		status, hist := signedProbe(t, ts.URL, http.MethodGet, PathReleases+"?user="+user, nil,
			"alice", testKey('A'), clk.Now(), "0d15ea60"+string(rune('a'+len(user)%26)), nil)
		if status != http.StatusOK {
			t.Fatalf("history fetch = %d", status)
		}
		var hr ReleasesResponse
		if err := json.Unmarshal(hist, &hr); err != nil {
			t.Fatal(err)
		}
		want := 0
		if user == "alice" {
			want = 1 // the control release only
		}
		if len(hr.Releases) != want {
			t.Errorf("%s history has %d releases, want %d", user, len(hr.Releases), want)
		}
	}
}

func TestAuthReplayRejected(t *testing.T) {
	clk := newBudgetClock()
	ts, _ := newGSPTestServer(t,
		WithAuth(mustKeyring(t, "alice"), WithAuthClock(clk.Now)))
	freq := PathFreq + "?x=1&y=2&r=300"

	// Capture one signed request and send it twice, byte-identical —
	// the classic capture-and-replay.
	req, err := http.NewRequest(http.MethodGet, ts.URL+freq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := SignRequest(req, nil, "alice", testKey('A'), clk.Now(), "ca11ab1e"); err != nil {
		t.Fatal(err)
	}
	send := func() (int, []byte) {
		t.Helper()
		r2 := req.Clone(context.Background())
		resp, err := http.DefaultClient.Do(r2)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}
	if status, body := send(); status != http.StatusOK {
		t.Fatalf("first send = %d: %s", status, body)
	}
	status, body := send()
	assertAuthReject(t, "replay", status, body, authReplay)
	// Still replayed a minute later, inside the window.
	clk.Advance(time.Minute)
	status, body = send()
	assertAuthReject(t, "replay after 1m", status, body, authReplay)

	snap := fetchSnapshot(t, ts.URL)
	if got := snap.Counters[MetricAuthReplay]; got != 2 {
		t.Errorf("%s = %d, want 2", MetricAuthReplay, got)
	}
	if got := snap.Counters[MetricAuthRejected]; got != 0 {
		t.Errorf("%s = %d, want 0 (replays have their own counter)", MetricAuthRejected, got)
	}
}

func TestAuthTimestampWindowBothDirections(t *testing.T) {
	clk := newBudgetClock()
	window := 2 * time.Minute
	ts, _ := newGSPTestServer(t, WithAuth(mustKeyring(t, "alice"),
		WithAuthClock(clk.Now), WithAuthWindow(window)))
	now := clk.Now()
	freq := PathFreq + "?x=1&y=2&r=300"

	cases := []struct {
		name   string
		at     time.Time
		nonce  string
		wantOK bool
	}{
		{"1s old", now.Add(-time.Second), "aaaa0001", true},
		{"just inside past edge", now.Add(-window + time.Second), "aaaa0002", true},
		{"past the window (old capture)", now.Add(-window - time.Second), "aaaa0003", false},
		{"far future (clock fabrication)", now.Add(window + time.Second), "aaaa0004", false},
		{"just inside future edge (skew)", now.Add(window - time.Second), "aaaa0005", true},
		{"days old", now.Add(-48 * time.Hour), "aaaa0006", false},
	}
	for _, tc := range cases {
		status, body := signedProbe(t, ts.URL, http.MethodGet, freq, nil,
			"alice", testKey('A'), tc.at, tc.nonce, nil)
		if tc.wantOK {
			if status != http.StatusOK {
				t.Errorf("%s: status %d, want 200: %s", tc.name, status, body)
			}
		} else {
			assertAuthReject(t, tc.name, status, body, authStale)
		}
	}
}

func TestAuthBypassProbesEveryRoute(t *testing.T) {
	// Every registered API route on both servers must demand a
	// signature; an attacker probing for a forgotten endpoint finds
	// none. The operational endpoints stay open — probes and metric
	// scrapes cannot sign.
	clk := newBudgetClock()
	kr := mustKeyring(t, "alice")

	gspTS, _ := newGSPTestServer(t, WithAuth(kr, WithAuthClock(clk.Now)))
	led, err := budget.New(budget.Policy{LifetimeEps: 100})
	if err != nil {
		t.Fatal(err)
	}
	lbsTS, _ := newLBSTestServer(t,
		WithAuth(kr, WithAuthClock(clk.Now)), WithBudget(led, 0.5, 0))
	gwTS, gw := newGatewayTestServer(t, gspTS.URL, WithAuth(kr, WithAuthClock(clk.Now)))

	relBody, _ := json.Marshal(testRelease(t, "alice"))
	batchBody, _ := json.Marshal(BatchRequest{Items: []BatchItem{{R: 300}}})
	joinBody, _ := json.Marshal(ClusterJoinRequest{URL: "http://127.0.0.1:1"})
	probes := []struct {
		base, method, path string
		body               []byte
	}{
		{gspTS.URL, http.MethodGet, PathStats, nil},
		{gspTS.URL, http.MethodGet, PathQuery + "?x=1&y=2&r=300", nil},
		{gspTS.URL, http.MethodGet, PathFreq + "?x=1&y=2&r=300", nil},
		{gspTS.URL, http.MethodGet, PathPOIs, nil},
		{gspTS.URL, http.MethodPost, PathFreqBatch, batchBody},
		{gspTS.URL, http.MethodPost, PathQueryBatch, batchBody},
		{lbsTS.URL, http.MethodPost, PathRelease, relBody},
		{lbsTS.URL, http.MethodGet, PathReleases + "?user=alice", nil},
		{lbsTS.URL, http.MethodGet, PathBudget + "/alice", nil},
		{lbsTS.URL, http.MethodPost, PathBudget + "/alice/reset", nil},
		{gwTS.URL, http.MethodGet, PathStats, nil},
		{gwTS.URL, http.MethodGet, PathPOIs, nil},
		{gwTS.URL, http.MethodGet, PathQuery + "?x=1&y=2&r=300", nil},
		{gwTS.URL, http.MethodGet, PathFreq + "?x=1&y=2&r=300", nil},
		{gwTS.URL, http.MethodPost, PathFreqBatch, batchBody},
		{gwTS.URL, http.MethodPost, PathQueryBatch, batchBody},
		{gwTS.URL, http.MethodGet, PathClusterPeers, nil},
		{gwTS.URL, http.MethodPost, PathClusterPeers, joinBody},
		{gwTS.URL, http.MethodDelete, PathClusterPeers + "/" + url.PathEscape(gspTS.URL), nil},
		// Unregistered paths 401 too: the middleware sits outside the mux,
		// so route discovery via 404-vs-401 oracle is not possible.
		{gspTS.URL, http.MethodGet, "/v1/secret", nil},
		{gwTS.URL, http.MethodGet, "/v1/secret", nil},
	}
	for _, p := range probes {
		status, body := signedProbe(t, p.base, p.method, p.path, p.body, "", nil, clk.Now(), "", nil)
		assertAuthReject(t, p.method+" "+p.path, status, body, authMissing)
	}

	// An unsigned admin reset must leave the ledger untouched.
	if st := led.Status("alice"); st.Releases != 0 || st.SpentEps != 0 {
		t.Errorf("unsigned probes touched the ledger: %+v", st)
	}

	// Authentication is not authorization: a *registered* tenant signing
	// another tenant's budget admin paths verifies (the signature covers
	// the path, after all) but must be refused — see
	// TestAuthBudgetAdminCrossTenantForbidden for the full matrix.

	// Unsigned probes never reached the gateway's membership.
	if n := len(gw.peersResponse().Peers); n != 1 {
		t.Errorf("unsigned probes changed the gateway's membership: %d peers", n)
	}

	// Ops endpoints answer unsigned.
	for _, base := range []string{gspTS.URL, lbsTS.URL, gwTS.URL} {
		for _, path := range []string{obs.PathHealthz, obs.PathReadyz, obs.PathMetrics} {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("unsigned GET %s = %d, want 200", path, resp.StatusCode)
			}
		}
	}
}

// TestAuthBudgetAdminCrossTenantForbidden is the authorization matrix
// for the budget admin endpoints: a valid signature names WHO is
// calling, not WHAT they may touch. Tenant mallory signing
// GET/POST /v1/budget/alice[/reset] verifies — the path is inside the
// canonical string — but must come back 403 with a structured
// principal_mismatch reason and leave alice's (ε, δ) accounting
// byte-exact, while each tenant keeps full self-service on its own
// budget.
func TestAuthBudgetAdminCrossTenantForbidden(t *testing.T) {
	led, err := budget.New(budget.Policy{LifetimeEps: 100})
	if err != nil {
		t.Fatal(err)
	}
	clk := newBudgetClock()
	kr := mustKeyring(t, "alice", "mallory") // keys 'A' and 'B'
	ts, _ := newLBSTestServer(t,
		WithAuth(kr, WithAuthClock(clk.Now)), WithBudget(led, 0.5, 0))
	now := clk.Now()

	// Alice spends once, so a successful cross-tenant reset would be
	// visible as Releases dropping back to zero.
	relBody, _ := json.Marshal(testRelease(t, "alice"))
	if status, body := signedProbe(t, ts.URL, http.MethodPost, PathRelease, relBody,
		"alice", testKey('A'), now, "a11ce001", nil); status != http.StatusOK {
		t.Fatalf("alice's release = %d: %s", status, body)
	}

	crossProbes := []struct {
		name, method, path string
	}{
		{"cross-tenant status", http.MethodGet, PathBudget + "/alice"},
		{"cross-tenant reset", http.MethodPost, PathBudget + "/alice/reset"},
	}
	for i, p := range crossProbes {
		status, body := signedProbe(t, ts.URL, p.method, p.path, nil,
			"mallory", testKey('B'), now, fmt.Sprintf("ba4ba4%02x", i), nil)
		if status != http.StatusForbidden {
			t.Errorf("%s: status %d, want 403 (body %s)", p.name, status, body)
			continue
		}
		var e AuthErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s: 403 body is not JSON: %q", p.name, body)
			continue
		}
		if e.Reason != string(authPrincipalMismatch) {
			t.Errorf("%s: reason %q, want %q", p.name, e.Reason, authPrincipalMismatch)
		}
	}
	if st := led.Status("alice"); st.Releases != 1 {
		t.Errorf("mallory's cross-tenant calls moved alice's accounting: %+v", st)
	}

	// Self-service stays intact: mallory reads her own budget, alice
	// resets her own.
	if status, body := signedProbe(t, ts.URL, http.MethodGet, PathBudget+"/mallory", nil,
		"mallory", testKey('B'), now, "5e1f0001", nil); status != http.StatusOK {
		t.Errorf("mallory's own status = %d: %s", status, body)
	}
	if status, body := signedProbe(t, ts.URL, http.MethodPost, PathBudget+"/alice/reset", nil,
		"alice", testKey('A'), now, "5e1f0002", nil); status != http.StatusOK {
		t.Errorf("alice's own reset = %d: %s", status, body)
	}
	if st := led.Status("alice"); st.Releases != 0 {
		t.Errorf("alice's own reset did not take: %+v", st)
	}
}

// tenantClients returns an auth-on LBS server with principals alice and
// bob, and one signed client per principal.
func tenantClients(t *testing.T) (alice, bob *LBSClient) {
	t.Helper()
	ts, _ := newLBSTestServer(t, WithAuth(mustKeyring(t, "alice", "bob"))) // keys 'A' and 'B'
	alice = NewLBSClient(ts.URL, ts.Client(), WithSigningKey("alice", testKey('A')))
	bob = NewLBSClient(ts.URL, ts.Client(), WithSigningKey("bob", testKey('B')))
	return alice, bob
}

// releaseRadii reads userID's history through c and returns each stored
// release's radius, which the tests below use to tell releases apart.
func releaseRadii(t *testing.T, c *LBSClient, userID string) []float64 {
	t.Helper()
	hist, err := c.Releases(context.Background(), userID)
	if err != nil {
		t.Fatal(err)
	}
	var rs []float64
	for _, rel := range hist.Releases {
		rs = append(rs, rel.R)
	}
	return rs
}

// TestAuthReleasesReadOnlyOwnTenant: bob's stored release is his own.
// Alice signs a read of bob's userId and must get none of it back.
func TestAuthReleasesReadOnlyOwnTenant(t *testing.T) {
	alice, bob := tenantClients(t)
	rel := testRelease(t, "bob-user")
	if _, err := bob.Release(context.Background(), rel); err != nil {
		t.Fatal(err)
	}
	if got := releaseRadii(t, alice, "bob-user"); len(got) != 0 {
		t.Errorf("alice read %d of bob's releases (radii %v), want none", len(got), got)
	}
	if got := releaseRadii(t, bob, "bob-user"); len(got) != 1 {
		t.Errorf("bob reads %d of his own releases, want 1", len(got))
	}
}

// TestAuthReleasesWriteOnlyOwnTenant: a release alice signs under bob's
// userId lands in alice's history, not in bob's. Without auth the same
// holds for the fallback identities: a release sent with X-Principal
// alice is not read back by an unsigned read, whose principal falls
// back to the userId.
func TestAuthReleasesWriteOnlyOwnTenant(t *testing.T) {
	ctx := context.Background()
	alice, bob := tenantClients(t)
	bobs, alices := testRelease(t, "bob-user"), testRelease(t, "bob-user")
	bobs.R, alices.R = 900, 1000
	if _, err := bob.Release(ctx, bobs); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Release(ctx, alices); err != nil {
		t.Fatal(err)
	}
	if got := releaseRadii(t, bob, "bob-user"); !slices.Equal(got, []float64{900}) {
		t.Errorf("bob's history holds radii %v, want only his own [900]", got)
	}
	if got := releaseRadii(t, alice, "bob-user"); !slices.Equal(got, []float64{1000}) {
		t.Errorf("alice's history holds radii %v, want only her own [1000]", got)
	}

	ts, plain := newLBSTestServer(t)
	spoofer := NewLBSClient(ts.URL, ts.Client(), WithPrincipal("alice"))
	if _, err := spoofer.Release(ctx, alices); err != nil {
		t.Fatal(err)
	}
	if got := releaseRadii(t, plain, "bob-user"); len(got) != 0 {
		t.Errorf("without auth, bob-user's read holds alice's releases (radii %v)", got)
	}
	if got := releaseRadii(t, spoofer, "bob-user"); !slices.Equal(got, []float64{1000}) {
		t.Errorf("without auth, alice's read holds radii %v, want [1000]", got)
	}
}

func TestAuthSignedClientEndToEnd(t *testing.T) {
	// The transparent signing path: a WithSigningKey client works across
	// every endpoint of both servers (real clock — the client stamps
	// time.Now, so the server must verify real timestamps), while an
	// unsigned client gets typed ErrUnauthorized everywhere.
	kr := mustKeyring(t, "alice")
	city, _ := wireFixture(t)
	gspTS, _ := newGSPTestServer(t, WithAuth(kr))
	lbsTS, _ := newLBSTestServer(t, WithAuth(kr))
	signed := []ClientOption{WithSigningKey("alice", testKey('A'))}
	gsp := NewGSPClient(gspTS.URL, gspTS.Client(), signed...)
	lbs := NewLBSClient(lbsTS.URL, lbsTS.Client(), signed...)
	ctx := context.Background()

	if _, err := gsp.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	l := city.RandomLocations(1, 41)[0]
	if _, err := gsp.Freq(ctx, l, 700); err != nil {
		t.Fatal(err)
	}
	if _, err := gsp.Query(ctx, l, 700); err != nil {
		t.Fatal(err)
	}
	if _, err := gsp.FreqBatch(ctx, []BatchItem{{X: l.X, Y: l.Y, R: 700}}); err != nil {
		t.Fatal(err)
	}
	if _, err := lbs.Release(ctx, testRelease(t, "alice")); err != nil {
		t.Fatal(err)
	}
	if _, err := lbs.Releases(ctx, "alice"); err != nil {
		t.Fatal(err)
	}

	// Validation errors still surface as 400, not 401: a signed request
	// is authenticated first, then validated.
	if _, err := gsp.Freq(ctx, l, -1); !errors.Is(err, ErrBadRequest) {
		t.Errorf("signed invalid request: %v, want ErrBadRequest", err)
	}

	unsignedGSP := NewGSPClient(gspTS.URL, gspTS.Client())
	_, err := unsignedGSP.Stats(ctx)
	if !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unsigned client error = %v, want ErrUnauthorized", err)
	}
	var unauth *UnauthorizedError
	if !errors.As(err, &unauth) || unauth.Reason != string(authMissing) {
		t.Fatalf("typed 401 missing reason: %v", err)
	}

	// A client holding the wrong key is rejected too (and the typed
	// error says why).
	wrongKey := NewLBSClient(lbsTS.URL, lbsTS.Client(), WithSigningKey("alice", testKey('Z')))
	_, err = wrongKey.Release(ctx, testRelease(t, "alice"))
	if !errors.As(err, &unauth) || unauth.Reason != string(authBadSignature) {
		t.Fatalf("wrong-key client error = %v, want bad_signature", err)
	}
}

func TestAuthRetriesAreNotSelfReplays(t *testing.T) {
	// The client signs per attempt with a fresh nonce; a retry after an
	// injected transport fault must not be rejected by the server's
	// replay cache as a reuse of the first attempt's nonce.
	ts, _ := newGSPTestServer(t, WithAuth(mustKeyring(t, "alice")))
	ft := &faultTransport{base: http.DefaultTransport, script: []faultAction{actDrop}}
	hc := &http.Client{Transport: ft}
	t.Cleanup(hc.CloseIdleConnections)
	client := NewGSPClient(ts.URL, hc,
		WithRetries(2), fastBackoff(), WithSigningKey("alice", testKey('A')))

	if _, err := client.Stats(context.Background()); err != nil {
		t.Fatalf("retry after fault failed against auth server: %v", err)
	}
	if got := ft.callCount(); got != 2 {
		t.Errorf("made %d attempts, want 2", got)
	}
}
