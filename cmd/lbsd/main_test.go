package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"slices"
	"testing"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/citygen"
	"poiagg/internal/cloak"
	"poiagg/internal/defense"
	"poiagg/internal/gsp"
	"poiagg/internal/stream"
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
		Bounds:   city.Bounds,
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
	rel, err := stream.NewReleaser(st, svc, mech, led, stream.ReleaserConfig{
		Interval: time.Millisecond,
		Radius:   800,
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
		"stream-pop=2000",
		"stream-radius=1000",
		"stream-seed=1",
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
