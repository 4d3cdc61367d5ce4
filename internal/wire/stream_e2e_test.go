package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/cloak"
	"poiagg/internal/defense"
	"poiagg/internal/gsp"
	"poiagg/internal/obs"
	"poiagg/internal/poi"
	"poiagg/internal/stream"
)

var streamBase = time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)

// streamStack is one full streaming LBS deployment for tests: store,
// releaser, optional persistent ledger, manual clock, HTTP server.
type streamStack struct {
	st    *stream.Store
	rel   *stream.Releaser
	led   *budget.Ledger
	clock *stream.ManualClock
	ts    *httptest.Server
}

// streamStackConfig controls newStreamStack.
type streamStackConfig struct {
	maxUsers   int
	maxPerUser int
	ledgerDir  string // "" disables the budget ledger
	seed       uint64
	srvOpts    []ServerOption
}

func newStreamStack(t testing.TB, cfg streamStackConfig) *streamStack {
	t.Helper()
	city, svc := wireFixture(t)
	clock := stream.NewManualClock(streamBase)
	if cfg.maxUsers == 0 {
		cfg.maxUsers = 128
	}
	st, err := stream.NewStore(stream.Config{
		Window:     4 * time.Minute,
		MaxUsers:   cfg.maxUsers,
		MaxPerUser: cfg.maxPerUser,
		Clock:      clock.Now,
		City:       city.City,
		Radius:     800,
	})
	if err != nil {
		t.Fatal(err)
	}
	var led *budget.Ledger
	if cfg.ledgerDir != "" {
		led, err = budget.Open(budget.Policy{LifetimeEps: 10, LifetimeDelta: 0.5},
			cfg.ledgerDir, budget.WithClock(clock.Now))
		if err != nil {
			t.Fatal(err)
		}
	}
	pop := cloak.UniformPopulation(city.Bounds, 2_000, 77)
	mech, err := defense.NewDPRelease(svc, pop, defense.DefaultDPReleaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := stream.NewReleaser(st, mech, led, stream.ReleaserConfig{
		Seed:  cfg.seed,
		Eps:   0.5,
		Delta: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]ServerOption{WithStream(st, rel)}, cfg.srvOpts...)
	ts := httptest.NewServer(NewLBSServer(city.M(), opts...))
	t.Cleanup(ts.Close)
	return &streamStack{st: st, rel: rel, led: led, clock: clock, ts: ts}
}

// streamSum is the sum of the events' frequency vectors at radius r,
// counted from scratch without a cache.
func streamSum(t testing.TB, r float64, evs ...stream.Event) poi.FreqVector {
	t.Helper()
	city, _ := wireFixture(t)
	svc := gsp.NewService(city.City, 0)
	sum := poi.NewFreqVector(city.M())
	for _, ev := range evs {
		for i, c := range svc.Freq(ev.Loc(), r) {
			sum[i] += c
		}
	}
	return sum
}

// streamEvent builds an in-bounds event for the wire fixture city.
func streamEvent(t testing.TB, user string, seed int, ts time.Time) stream.Event {
	t.Helper()
	city, _ := wireFixture(t)
	l := city.RandomLocations(1, uint64(seed)+9000)[0]
	return stream.Event{UserID: user, X: l.X, Y: l.Y, TS: ts}
}

// TestStreamReplayIdentityE2E is the PR's acceptance proof: live
// streamed ingestion over authenticated HTTP, interleaved with window
// ticks, then an offline batch replay of the captured event log over
// the same tick schedule. The windowed releases must be bit-identical
// (same seeded noise) and the budget ledgers must end byte-identical,
// both in-memory and as persisted snapshots.
func TestStreamReplayIdentityE2E(t *testing.T) {
	kr := mustKeyring(t, "acme", "globex")
	liveDir := t.TempDir()
	live := newStreamStack(t, streamStackConfig{
		ledgerDir: liveDir,
		seed:      4242,
		srvOpts:   []ServerOption{WithAuth(kr)},
	})
	acme := NewLBSClient(live.ts.URL, live.ts.Client(), WithSigningKey("acme", testKey('A')))
	globex := NewLBSClient(live.ts.URL, live.ts.Client(), WithSigningKey("globex", testKey('B')))
	ctx := context.Background()

	var log []stream.LoggedEvent
	ticks := []time.Time{
		streamBase.Add(1 * time.Minute),
		streamBase.Add(2 * time.Minute),
		streamBase.Add(3 * time.Minute),
		streamBase.Add(5*time.Minute + 30*time.Second),
	}
	// ingest streams a batch through the signed HTTP client at the
	// given server-clock time, capturing the log the replay will use.
	ingest := func(cl *LBSClient, principal string, at time.Time, evs ...stream.Event) *IngestResponse {
		t.Helper()
		live.clock.Set(at)
		for _, ev := range evs {
			log = append(log, stream.LoggedEvent{At: at, Principal: principal, Event: ev})
		}
		resp, err := cl.Ingest(ctx, evs)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	r1 := ingest(acme, "acme", streamBase.Add(10*time.Second),
		streamEvent(t, "ada", 1, streamBase.Add(5*time.Second)),
		streamEvent(t, "cyd", 2, streamBase.Add(8*time.Second)))
	if r1.Accepted != 2 || r1.Rejected != 0 {
		t.Fatalf("first batch: %+v", r1)
	}
	// One stale event mixed into a valid batch: rejected live, and the
	// replay must reproduce that rejection from the same logged clock.
	r2 := ingest(globex, "globex", streamBase.Add(30*time.Second),
		streamEvent(t, "bob", 3, streamBase.Add(25*time.Second)),
		streamEvent(t, "bob", 4, streamBase.Add(-10*time.Minute)))
	if r2.Accepted != 1 || r2.Rejected != 1 {
		t.Fatalf("second batch: %+v", r2)
	}

	var liveRels []stream.WindowRelease
	tick := func(tk time.Time) {
		t.Helper()
		live.clock.Set(tk)
		wr, err := live.rel.Tick(tk)
		if err != nil {
			t.Fatal(err)
		}
		liveRels = append(liveRels, wr)
	}
	tick(ticks[0])
	ingest(acme, "acme", streamBase.Add(80*time.Second),
		streamEvent(t, "ada", 5, streamBase.Add(75*time.Second)))
	ingest(globex, "globex", streamBase.Add(100*time.Second),
		streamEvent(t, "bob", 6, streamBase.Add(95*time.Second)),
		streamEvent(t, "eve", 7, streamBase.Add(99*time.Second)))
	tick(ticks[1])
	tick(ticks[2]) // no new events; everything still inside the 4m window
	tick(ticks[3]) // the first wave has aged out by now

	// The release history must round-trip the HTTP surface too — as the
	// public projection, which is all the endpoint serves.
	hist, err := acme.StreamReleases(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantPub := make([]stream.PublicRelease, 0, len(live.rel.History(0)))
	for _, wr := range live.rel.History(0) {
		wantPub = append(wantPub, wr.Public())
	}
	if !reflect.DeepEqual(hist.Releases, wantPub) {
		t.Fatalf("HTTP release history diverged from in-process history:\n got  %+v\n want %+v", hist.Releases, wantPub)
	}

	liveState, err := live.led.DumpState()
	if err != nil {
		t.Fatal(err)
	}

	// Offline replay: fresh stack, fresh ledger in a fresh dir, same
	// seed, same policy, same event log and tick schedule.
	replayDir := t.TempDir()
	replay := newStreamStack(t, streamStackConfig{ledgerDir: replayDir, seed: 4242})
	replayRels, err := stream.Replay(replay.st, replay.rel, replay.clock, log, ticks)
	if err != nil {
		t.Fatal(err)
	}

	liveJSON, err := json.Marshal(liveRels)
	if err != nil {
		t.Fatal(err)
	}
	replayJSON, err := json.Marshal(replayRels)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON, replayJSON) {
		t.Fatalf("replayed releases not bit-identical:\n live   %s\n replay %s", liveJSON, replayJSON)
	}
	// Window shapes: first wave (ada, cyd, bob) at tick 0; eve joins by
	// tick 1; nothing ages out by tick 2 (4m window); by tick 3 only
	// bob's and eve's second-wave events survive.
	gotUsers := []int{liveRels[0].Users, liveRels[1].Users, liveRels[2].Users, liveRels[3].Users}
	if !reflect.DeepEqual(gotUsers, []int{3, 4, 4, 2}) {
		t.Errorf("unexpected window shapes %v: %s", gotUsers, liveJSON)
	}

	replayState, err := replay.led.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveState, replayState) {
		t.Fatalf("ledger state diverged:\n live   %s\n replay %s", liveState, replayState)
	}

	// Close both ledgers and compare the persisted snapshots byte for
	// byte.
	if err := live.led.Close(); err != nil {
		t.Fatal(err)
	}
	if err := replay.led.Close(); err != nil {
		t.Fatal(err)
	}
	liveSnap, err := os.ReadFile(filepath.Join(liveDir, "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	replaySnap, err := os.ReadFile(filepath.Join(replayDir, "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveSnap, replaySnap) {
		t.Fatalf("persisted ledger snapshots differ:\n live   %s\n replay %s", liveSnap, replaySnap)
	}
}

// TestStreamReleasesScrubTenantData pins the public-projection fix
// from review: GET /v1/stream/releases is readable by any caller, so
// the raw JSON it serves must carry neither denied tenant names (the
// tenant-isolation invariant the budget admin endpoints 403) nor the
// exact users/events counts (exact functions of real participation,
// outside the DP guarantee). Denials surface only as an anonymous
// count.
func TestStreamReleasesScrubTenantData(t *testing.T) {
	stk := newStreamStack(t, streamStackConfig{ledgerDir: t.TempDir(), seed: 11})
	const victim = "secret-tenant"
	if err := stk.st.Apply(streamEvent(t, "ada", 1, streamBase), victim); err != nil {
		t.Fatal(err)
	}
	// The stack's policy allows 10 eps lifetime at 0.5 per window: 20
	// ticks drain it, the 21st is denied. All ticks stay inside the 4m
	// window so the event keeps contributing.
	var last stream.WindowRelease
	for i := 1; i <= 21; i++ {
		var err error
		last, err = stk.rel.Tick(streamBase.Add(time.Duration(i) * time.Second))
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(last.Denied) != 1 || last.Denied[0] != victim {
		t.Fatalf("test premise broken: final tick Denied = %v", last.Denied)
	}

	resp, err := stk.ts.Client().Get(stk.ts.URL + PathStreamReleases)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, leak := range []string{victim, `"users"`, `"events"`, `"denied"`} {
		if strings.Contains(body, leak) {
			t.Errorf("public release body leaks %s:\n%s", leak, body)
		}
	}
	if !strings.Contains(body, `"deniedPrincipals":1`) {
		t.Errorf("public release body missing the anonymous denial count:\n%s", body)
	}
	var srr StreamReleasesResponse
	if err := json.Unmarshal(raw, &srr); err != nil {
		t.Fatal(err)
	}
	if n := len(srr.Releases); n != 21 {
		t.Fatalf("releases = %d, want 21", n)
	}
	if got := srr.Releases[20]; got.DeniedPrincipals != 1 || len(got.Freq) != 0 {
		t.Errorf("denied-window public release: %+v", got)
	}
	if got := srr.Releases[0]; got.DeniedPrincipals != 0 || len(got.Freq) == 0 {
		t.Errorf("healthy-window public release: %+v", got)
	}
}

// lossyTransport forwards each request to the real server but discards
// the first n responses, synthesizing a 503 instead — the "reply lost
// in transit" failure that makes an at-least-once client resend a batch
// the server already applied.
type lossyTransport struct {
	base http.RoundTripper
	lose int32
}

func (lt *lossyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := lt.base.RoundTrip(req)
	if err != nil || atomic.AddInt32(&lt.lose, -1) < 0 {
		return resp, err
	}
	resp.Body.Close()
	return &http.Response{
		Status:     "503 Service Unavailable",
		StatusCode: http.StatusServiceUnavailable,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1, ProtoMinor: 1,
		Header:  make(http.Header),
		Body:    io.NopCloser(strings.NewReader(`{"error":"injected lost reply"}`)),
		Request: req,
	}, nil
}

// TestIngestRetryDeduplicates pins the review's duplicate-inflation
// fix end to end: the server applies a batch, the reply is lost, the
// retrying client resends the identical NDJSON body — and the window
// store deduplicates by the client-stamped event ids, so the retried
// batch reports Deduped (not Accepted) and the window holds each event
// exactly once.
func TestIngestRetryDeduplicates(t *testing.T) {
	stk := newStreamStack(t, streamStackConfig{seed: 5})
	hc := &http.Client{Transport: &lossyTransport{base: stk.ts.Client().Transport, lose: 1}}
	client := NewLBSClient(stk.ts.URL, hc,
		WithRetries(2), WithBackoff(time.Millisecond, 2*time.Millisecond))

	evs := []stream.Event{
		streamEvent(t, "ada", 1, streamBase),
		streamEvent(t, "ada", 2, streamBase.Add(time.Second)),
		streamEvent(t, "bob", 3, streamBase.Add(2*time.Second)),
	}
	resp, err := client.Ingest(context.Background(), evs)
	if err != nil {
		t.Fatal(err)
	}
	// The surviving (second) attempt saw every event already applied.
	if resp.Accepted != 0 || resp.Deduped != 3 || resp.Rejected != 0 {
		t.Fatalf("retried batch accounting: %+v", resp)
	}
	s := stk.st.Stats()
	if s.WindowEvents != 3 || s.Accepted != 3 || s.Deduped != 3 {
		t.Fatalf("window after retry: %+v (duplicates inflated the window)", s)
	}
	// A genuinely fresh batch (new call → new batch id) is not deduped.
	resp2, err := client.Ingest(context.Background(), []stream.Event{
		streamEvent(t, "ada", 4, streamBase.Add(3*time.Second)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Accepted != 1 || resp2.Deduped != 0 {
		t.Fatalf("fresh batch accounting: %+v", resp2)
	}
}

// TestIngestCrossTenantWindowIsolationE2E drives the review's hijack
// scenario over signed HTTP: tenant globex streams one event under a
// userId acme has been streaming. The event must land in globex's own
// window — acme's buffered events stay acme's (charged to acme, not
// globex, and not suppressible by globex's budget state).
func TestIngestCrossTenantWindowIsolationE2E(t *testing.T) {
	kr := mustKeyring(t, "acme", "globex")
	stk := newStreamStack(t, streamStackConfig{
		ledgerDir: t.TempDir(),
		seed:      13,
		srvOpts:   []ServerOption{WithAuth(kr)},
	})
	acme := NewLBSClient(stk.ts.URL, stk.ts.Client(), WithSigningKey("acme", testKey('A')))
	globex := NewLBSClient(stk.ts.URL, stk.ts.Client(), WithSigningKey("globex", testKey('B')))
	ctx := context.Background()

	acmeEvs := []stream.Event{
		streamEvent(t, "ada", 1, streamBase),
		streamEvent(t, "ada", 2, streamBase.Add(time.Second)),
	}
	globexEvs := []stream.Event{
		streamEvent(t, "ada", 3, streamBase.Add(2*time.Second)),
	}
	if _, err := acme.Ingest(ctx, acmeEvs); err != nil {
		t.Fatal(err)
	}
	if _, err := globex.Ingest(ctx, globexEvs); err != nil {
		t.Fatal(err)
	}

	aw := stk.st.ActiveAt(streamBase.Add(3 * time.Second))
	if len(aw) != 2 {
		t.Fatalf("windows = %+v, want separate acme/ada and globex/ada windows", aw)
	}
	if aw[0].Principal != "acme" || aw[0].Events != 2 || !reflect.DeepEqual(aw[0].Sum, streamSum(t, 800, acmeEvs...)) ||
		aw[1].Principal != "globex" || aw[1].Events != 1 || !reflect.DeepEqual(aw[1].Sum, streamSum(t, 800, globexEvs...)) {
		t.Fatalf("window ownership: %+v", aw)
	}

	// The tick charges each tenant for its own window.
	wr, err := stk.rel.Tick(streamBase.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if wr.Users != 2 || wr.Events != 3 {
		t.Fatalf("release: %+v", wr)
	}
	for _, p := range []string{"acme", "globex"} {
		if d := stk.led.Status(p); d.Releases != 1 {
			t.Errorf("principal %s charged %d windows, want 1", p, d.Releases)
		}
	}
}

// fetchMetrics decodes the server's /v1/metrics snapshot.
func fetchMetrics(t testing.TB, ts *httptest.Server) obs.Snapshot {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestStreamFloodBoundedE2E is the acceptance flood: 10× the user cap
// of distinct streaming users, pushed through the real HTTP ingest
// endpoint, must leave stream.window_events at or under the cap-derived
// bound — the excess is shed (users_evicted counts it), not buffered.
func TestStreamFloodBoundedE2E(t *testing.T) {
	const maxUsers, maxPerUser = 32, 4
	stk := newStreamStack(t, streamStackConfig{maxUsers: maxUsers, maxPerUser: maxPerUser, seed: 7})
	client := NewLBSClient(stk.ts.URL, stk.ts.Client())
	ctx := context.Background()
	now := stk.clock.Now()

	sent := 0
	for batch := 0; batch < 10*maxUsers/16; batch++ {
		evs := make([]stream.Event, 0, 16*2)
		for u := 0; u < 16; u++ {
			user := fmt.Sprintf("flood-%04d", batch*16+u)
			for j := 0; j < 2; j++ {
				evs = append(evs, streamEvent(t, user, batch*1000+u*10+j, now))
				sent++
			}
		}
		resp, err := client.Ingest(ctx, evs)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Rejected != 0 {
			t.Fatalf("flood batch %d rejected events: %+v", batch, resp)
		}
	}

	snap := fetchMetrics(t, stk.ts)
	c := snap.Counters
	if got := c[stream.MetricActiveUsers]; got > maxUsers {
		t.Errorf("%s = %d > cap %d", stream.MetricActiveUsers, got, maxUsers)
	}
	if got := c[stream.MetricWindowEvents]; got > maxUsers*maxPerUser {
		t.Errorf("%s = %d > bound %d", stream.MetricWindowEvents, got, maxUsers*maxPerUser)
	}
	if got := c[stream.MetricEventsAccepted]; got != uint64(sent) {
		t.Errorf("%s = %d, want %d", stream.MetricEventsAccepted, got, sent)
	}
	if got := c[stream.MetricUsersEvicted]; got < uint64(8*maxUsers) {
		t.Errorf("%s = %d, want ≥ %d (flood must shed users)", stream.MetricUsersEvicted, got, 8*maxUsers)
	}
}

// TestIngestPerEventErrors exercises the structured per-event error
// surface with a hand-built NDJSON stream mixing valid, malformed,
// invalid, and blank lines.
func TestIngestPerEventErrors(t *testing.T) {
	city, _ := wireFixture(t)
	stk := newStreamStack(t, streamStackConfig{seed: 3})
	good := streamEvent(t, "ok-user", 1, streamBase)
	goodJSON, _ := json.Marshal(good)
	outOfBounds, _ := json.Marshal(stream.Event{UserID: "u2", X: city.Bounds.MaxX + 1e6, Y: 0, TS: streamBase})
	stale, _ := json.Marshal(streamEvent(t, "u3", 2, streamBase.Add(-time.Hour)))
	noUser, _ := json.Marshal(stream.Event{X: good.X, Y: good.Y, TS: streamBase})
	body := strings.Join([]string{
		string(goodJSON),
		"{not json",
		"", // blank: skipped, not an error
		string(outOfBounds),
		string(stale),
		string(noUser),
		string(goodJSON),
	}, "\n")

	resp, err := stk.ts.Client().Post(stk.ts.URL+PathIngest, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 2 || ir.Rejected != 4 {
		t.Fatalf("accounting: %+v", ir)
	}
	wantLines := map[int]string{
		2: "invalid JSON",
		4: "bad location",
		5: "older than window",
		6: "no userId",
	}
	if len(ir.Errors) != len(wantLines) {
		t.Fatalf("errors: %+v", ir.Errors)
	}
	for _, ee := range ir.Errors {
		frag, ok := wantLines[ee.Line]
		if !ok {
			t.Errorf("unexpected error line %d: %q", ee.Line, ee.Error)
			continue
		}
		if !strings.Contains(ee.Error, frag) {
			t.Errorf("line %d error %q does not mention %q", ee.Line, ee.Error, frag)
		}
	}
	if ir.ErrorsTruncated {
		t.Error("ErrorsTruncated set with 4 errors")
	}
}

// TestIngestErrorListTruncates proves a hostile stream of thousands of
// bad events cannot balloon the response: the error list caps at 64
// entries and the flag says so.
func TestIngestErrorListTruncates(t *testing.T) {
	stk := newStreamStack(t, streamStackConfig{seed: 3})
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		sb.WriteString("{broken\n")
	}
	resp, err := stk.ts.Client().Post(stk.ts.URL+PathIngest, "application/x-ndjson", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Rejected != 100 || len(ir.Errors) != 64 || !ir.ErrorsTruncated {
		t.Fatalf("truncation: rejected=%d errors=%d truncated=%v", ir.Rejected, len(ir.Errors), ir.ErrorsTruncated)
	}
}

// TestIngestLineTooLong proves one oversized event line fails the
// stream with a 400 naming the line, instead of buffering it.
func TestIngestLineTooLong(t *testing.T) {
	stk := newStreamStack(t, streamStackConfig{seed: 3})
	long := `{"userId":"` + strings.Repeat("x", MaxIngestLine) + `"}`
	resp, err := stk.ts.Client().Post(stk.ts.URL+PathIngest, "application/x-ndjson", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "exceeds") {
		t.Errorf("error %q does not explain the line cap", er.Error)
	}
}

// TestIngestBodyTooLargeRealServer drives the 413 path through a real
// server body cap (not the fault proxy) and proves the typed error
// round-trips.
func TestIngestBodyTooLargeRealServer(t *testing.T) {
	stk := newStreamStack(t, streamStackConfig{seed: 3,
		srvOpts: []ServerOption{WithMaxBody(1024)}})
	client := NewLBSClient(stk.ts.URL, stk.ts.Client())
	evs := make([]stream.Event, 50)
	for i := range evs {
		evs[i] = streamEvent(t, fmt.Sprintf("big-%02d", i), i, streamBase)
	}
	_, err := client.Ingest(context.Background(), evs)
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("want ErrBodyTooLarge, got %v", err)
	}
	var btl *BodyTooLargeError
	if !errors.As(err, &btl) {
		t.Fatalf("error is not a *BodyTooLargeError: %v", err)
	}
	if !strings.Contains(btl.Message, "1024") {
		t.Errorf("message %q does not name the cap", btl.Message)
	}
}

// TestIngestBackpressure503 proves ingest rides the admission gate: a
// slow chunked stream holding the only admission slot forces the next
// ingest to shed with 503 + Retry-After, mapped to the transient
// OverloadedError. Nothing is buffered on behalf of the shed client.
func TestIngestBackpressure503(t *testing.T) {
	stk := newStreamStack(t, streamStackConfig{seed: 3,
		srvOpts: []ServerOption{WithAdmission(1, 0, 0)}})
	ctx := context.Background()

	// A chunked ingest that stays open: the handler blocks in the
	// scanner waiting for more lines, occupying the admission slot.
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, stk.ts.URL+PathIngest, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := stk.ts.Client().Do(req)
		done <- result{resp, err}
	}()
	first, _ := json.Marshal(streamEvent(t, "slowpoke", 1, streamBase))
	if _, err := pw.Write(append(first, '\n')); err != nil {
		t.Fatal(err)
	}
	// Wait (bounded) until the slow stream holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap := fetchMetrics(t, stk.ts); snap.Counters[MetricAdmissionInflight] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow ingest never occupied the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	client := NewLBSClient(stk.ts.URL, stk.ts.Client())
	_, err = client.Ingest(ctx, []stream.Event{streamEvent(t, "shed-me", 2, streamBase)})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded while the slot is held, got %v", err)
	}
	var ov *OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("error is not a *OverloadedError: %v", err)
	}
	if ov.RetryAfter <= 0 {
		t.Errorf("shed carried no Retry-After hint: %+v", ov)
	}

	// Release the slot; the slow stream completes normally.
	pw.Close()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.resp.Body.Close()
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("slow stream status = %d", res.resp.StatusCode)
	}
	var ir IngestResponse
	if err := json.NewDecoder(res.resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 1 {
		t.Fatalf("slow stream accounting: %+v", ir)
	}
	// The shed client's event never entered the window.
	if s := stk.st.Stats(); s.ActiveUsers != 1 {
		t.Errorf("window holds %d users, want only the slow stream's", s.ActiveUsers)
	}
}
