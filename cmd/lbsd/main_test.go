package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/citygen"
	"poiagg/internal/cloak"
	"poiagg/internal/defense"
	"poiagg/internal/gsp"
	"poiagg/internal/obs"
	"poiagg/internal/stream"
	"poiagg/internal/wire"
)

func TestRunRejectsBadFlags(t *testing.T) {
	// Only error paths are testable without binding a listener; the
	// serving path is covered end-to-end by internal/wire's httptest
	// suite.
	if err := run([]string{"-city", "gotham"}); err == nil {
		t.Error("unknown city accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
	// Invalid budget policies must fail before the listener binds.
	if err := run([]string{"-budget", "-budget-window-eps", "0"}); err == nil {
		t.Error("zero window epsilon accepted")
	}
	if err := run([]string{"-budget", "-budget-eps", "-1"}); err == nil {
		t.Error("negative lifetime epsilon accepted")
	}
	if err := run([]string{"-budget", "-budget-idle-ttl", "1h"}); err == nil {
		t.Error("idle TTL shorter than the window accepted")
	}
	// Budget charging with a free windowed release would be a silent
	// privacy hole; the releaser refuses it before the listener binds.
	if err := run([]string{"-budget", "-stream", "-stream-eps", "0"}); err == nil {
		t.Error("budget-charged stream with zero epsilon accepted")
	}
	if err := run([]string{"-stream", "-history-users", "0"}); err == nil {
		t.Error("stream with no user capacity accepted")
	}
}

// TestAuditedReleaseExportsGSPMetrics drives one audited release
// through the server lbsd builds: the audit's region attack probes the
// gsp cache, so /v1/metrics must carry its counters with a miss.
func TestAuditedReleaseExportsGSPMetrics(t *testing.T) {
	cfg := declareFlags(flag.NewFlagSet("lbsd", flag.ContinueOnError))
	logger := log.New(io.Discard, "", 0)
	d, err := build(cfg, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close(logger)
	ts := httptest.NewServer(d.srv)
	defer ts.Close()

	// Every type present: the audit anchors on the city's rarest type
	// and probes Freq around each of its POIs.
	freq := make([]int, citygen.Beijing(cfg.seed).NumTypes)
	for i := range freq {
		freq[i] = 1
	}
	body, err := json.Marshal(map[string]any{"userId": "u1", "r": 1000, "freq": freq})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/release", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rel wire.ReleaseResponse
	err = json.NewDecoder(resp.Body).Decode(&rel)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !rel.Audited {
		t.Fatalf("release: status %d, %+v, %v; want an audited 200", resp.StatusCode, rel, err)
	}

	resp, err = http.Get(ts.URL + obs.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters[gsp.MetricCacheMisses]; got == 0 {
		t.Errorf("%s = %d after an audited release, want > 0 (counters: %v)", gsp.MetricCacheMisses, got, snap.Counters)
	}
}

// TestStreamMechanismSpendsTheChargedBudget builds lbsd with a stream
// and a budget and requires the windowed releases' mechanism to spend
// exactly the (ε, δ) the releaser charges each principal: the ledger
// must not book less than a release spends.
func TestStreamMechanismSpendsTheChargedBudget(t *testing.T) {
	for _, args := range [][]string{
		{"-stream", "-budget"},
		{"-stream", "-budget", "-stream-eps", "0.25", "-stream-delta", "1e-5"},
	} {
		fs := flag.NewFlagSet("lbsd", flag.ContinueOnError)
		cfg := declareFlags(fs)
		if err := fs.Parse(append(args, "-no-audit")); err != nil {
			t.Fatal(err)
		}
		logger := log.New(io.Discard, "", 0)
		d, err := build(cfg, logger)
		if err != nil {
			t.Fatal(err)
		}
		mech, charged := d.rel.Mechanism().Config(), d.rel.Config()
		d.close(logger)
		if mech.Eps != charged.Eps || mech.Delta != charged.Delta {
			t.Errorf("%v: mechanism spends (ε=%v, δ=%v), the ledger is charged (ε=%v, δ=%v)",
				args, mech.Eps, mech.Delta, charged.Eps, charged.Delta)
		}
		if charged.Eps != cfg.streamEps || charged.Delta != cfg.streamDelta {
			t.Errorf("%v: charged (ε=%v, δ=%v), flags say (ε=%v, δ=%v)",
				args, charged.Eps, charged.Delta, cfg.streamEps, cfg.streamDelta)
		}
	}
}

// TestStreamSeedIsSecretByDefault builds lbsd twice with default
// stream flags: each boot must root its release noise in its own random
// seed, never the old fixed default of 1, since every public release
// names its tick and a known seed lets anyone recompute the noise. A
// pinned -stream-seed is still used as given.
func TestStreamSeedIsSecretByDefault(t *testing.T) {
	seedOf := func(args ...string) uint64 {
		fs := flag.NewFlagSet("lbsd", flag.ContinueOnError)
		cfg := declareFlags(fs)
		if err := fs.Parse(append(args, "-stream", "-no-audit")); err != nil {
			t.Fatal(err)
		}
		logger := log.New(io.Discard, "", 0)
		d, err := build(cfg, logger)
		if err != nil {
			t.Fatal(err)
		}
		defer d.close(logger)
		return d.rel.Config().Seed
	}
	a, b := seedOf(), seedOf()
	if a == b || a == 1 || b == 1 {
		t.Errorf("default boots rooted their noise in seeds %#x and %#x, want two distinct seeds, neither 1", a, b)
	}
	if got := seedOf("-stream-seed", "7"); got != 7 {
		t.Errorf("-stream-seed 7 rooted the noise in %#x, want 7", got)
	}
}

// TestStreamTickLeavesGSPCacheAlone ingests check-ins into the daemon
// lbsd builds and ticks its releaser: counting the events must not
// touch the gsp cache the audits use, so its size and misses stay as
// they were.
func TestStreamTickLeavesGSPCacheAlone(t *testing.T) {
	fs := flag.NewFlagSet("lbsd", flag.ContinueOnError)
	cfg := declareFlags(fs)
	if err := fs.Parse([]string{"-stream"}); err != nil {
		t.Fatal(err)
	}
	logger := log.New(io.Discard, "", 0)
	d, err := build(cfg, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close(logger)
	ts := httptest.NewServer(d.srv)
	defer ts.Close()
	metrics := func() map[string]uint64 {
		t.Helper()
		resp, err := http.Get(ts.URL + obs.PathMetrics)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap obs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap.Counters
	}

	city, err := citygen.Generate(citygen.Beijing(cfg.seed))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	now := time.Now().UTC()
	for i, l := range city.RandomLocations(32, 5) {
		ev := stream.Event{UserID: fmt.Sprintf("u%d", i%4), X: l.X, Y: l.Y, TS: now}
		if err := json.NewEncoder(&body).Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.IngestResponse
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || ack.Accepted != 32 {
		t.Fatalf("ingest: status %d, %+v, %v; want 32 accepted", resp.StatusCode, ack, err)
	}

	before := metrics()
	// Stopping the stream publishes one final release, which counts
	// every window event.
	d.stopStream()
	if h := d.rel.History(1); len(h) != 1 || h[0].Users != 4 || h[0].Events != 32 {
		t.Fatalf("final release: %+v, want 4 users and 32 events", h)
	}
	after := metrics()
	for _, name := range []string{gsp.MetricCacheSize, gsp.MetricCacheMisses} {
		if before[name] != after[name] {
			t.Errorf("%s went from %d to %d over a tick that counted 32 check-ins, want unchanged", name, before[name], after[name])
		}
	}
}

// TestStreamDrainChargesLedgerBeforeClose proves the shutdown ordering
// the SIGTERM path relies on: stopStreamAndCloseLedger must let the
// releaser's final flush charge every in-flight window to the ledger
// BEFORE the ledger writes its closing snapshot. The wall-clock ticker
// races the drain the whole time (1ms interval), and the proof is on
// disk: a reopened ledger must account for every tick that ever fired,
// including the drain's final flush — if Close ran first, that last
// spend would be missing from the snapshot.
func TestStreamDrainChargesLedgerBeforeClose(t *testing.T) {
	p := citygen.Beijing(31)
	p.NumPOIs = 1200
	p.NumTypes = 40
	p.Width, p.Height = 8_000, 8_000
	city, err := citygen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	svc := gsp.NewService(city.City, 1<<14)

	st, err := stream.NewStore(stream.Config{
		Window:   5 * time.Minute,
		MaxUsers: 16,
		City:     city.City,
		Radius:   800,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	policy := budget.Policy{LifetimeEps: 1e6, LifetimeDelta: 0.5}
	led, err := budget.Open(policy, dir)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := defense.NewDPRelease(svc, cloak.UniformPopulation(city.Bounds, 500, 7), defense.DefaultDPReleaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	const tickEps = 0.5
	rel, err := stream.NewReleaser(st, mech, led, stream.ReleaserConfig{
		Interval: time.Millisecond,
		Seed:     99,
		Eps:      tickEps,
		Delta:    1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Three users' check-ins, all charged to one principal. They stay in
	// the 5-minute window for the whole test, so every tick charges it.
	now := time.Now()
	for i, l := range city.RandomLocations(3, 123) {
		ev := stream.Event{UserID: fmt.Sprintf("u%d", i), X: l.X, Y: l.Y, TS: now}
		if err := st.Apply(ev, "acme"); err != nil {
			t.Fatal(err)
		}
	}

	stop := rel.Start(func(err error) { t.Errorf("tick error: %v", err) })
	// Wait for at least one periodic release so the drain genuinely
	// interrupts a live release loop rather than a never-started one.
	deadline := time.Now().Add(10 * time.Second)
	for rel.Ticks() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rel.Ticks() == 0 {
		t.Fatal("releaser never ticked")
	}

	stopStreamAndCloseLedger(log.New(io.Discard, "", 0), stop, led)

	ticks := rel.Ticks()
	if ticks < 2 {
		t.Fatalf("want >= 2 ticks (periodic + final flush), got %d", ticks)
	}
	hist := rel.History(1)
	if len(hist) != 1 || hist[0].Users != 3 {
		t.Fatalf("final flush release missing or wrong: %+v", hist)
	}

	// Reopen from disk: the snapshot Close wrote must cover every tick's
	// spend, the final flush included.
	led2, err := budget.Open(policy, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	stat := led2.Status("acme")
	if stat.Releases != uint64(ticks) {
		t.Fatalf("persisted releases = %d, want %d (one per tick)", stat.Releases, ticks)
	}
	if want := float64(ticks) * tickEps; math.Abs(stat.SpentEps-want) > 1e-9 {
		t.Fatalf("persisted spent eps = %v, want %v", stat.SpentEps, want)
	}
	// And the snapshot is byte-identical to the live ledger's final
	// in-memory state — nothing was charged after the snapshot.
	liveDump, err := led.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	diskDump, err := led2.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveDump, diskDump) {
		t.Fatalf("reopened ledger state differs from live state:\nlive: %s\ndisk: %s", liveDump, diskDump)
	}
}

// TestFlagSurface pins every flag's name and default: scripts and the
// benchmark start lbsd with these flags, so moving a flag between files
// must not rename it or change its default.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr=:8081",
		"admit-limit=0",
		"admit-queue=128",
		"admit-timeout=500ms",
		"auth-keys=",
		"auth-window=2m0s",
		"budget=false",
		"budget-delta=0.001",
		"budget-dir=",
		"budget-eps=10",
		"budget-idle-ttl=0s",
		"budget-snapshot-every=1000",
		"budget-window=24h0m0s",
		"budget-window-delta=0",
		"budget-window-eps=1.5",
		"city=beijing",
		"history=1000",
		"history-users=10000",
		"max-body=1048576",
		"no-audit=false",
		"pprof=false",
		"release-delta=1e-06",
		"release-eps=0.5",
		"seed=1",
		"stats-interval=1m0s",
		"stream=false",
		"stream-delta=1e-06",
		"stream-eps=0.5",
		"stream-history=64",
		"stream-per-user=64",
		"stream-radius=1000",
		"stream-seed=0",
		"stream-tick=1m0s",
		"stream-window=5m0s",
	}
	fs := flag.NewFlagSet("lbsd", flag.ContinueOnError)
	declareFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if !slices.Equal(got, want) {
		t.Errorf("flags changed:\ngot  %q\nwant %q", got, want)
	}
}
