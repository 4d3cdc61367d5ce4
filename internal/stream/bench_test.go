package stream

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"poiagg/internal/citygen"
	"poiagg/internal/defense"
	"poiagg/internal/gsp"
)

// BenchmarkStreamApply measures the ingest hot path: one validated
// event through the window store at steady state (user population at
// the cap, per-user windows full, so every apply prunes and drops).
func BenchmarkStreamApply(b *testing.B) {
	const users = 1024
	st, clock := testStore(b, users, 32, 10*time.Minute)
	now := clock.Now()
	evs := make([]Event, users)
	for i := range evs {
		evs[i] = eventAt(b, fmt.Sprintf("user-%04d", i), i, now)
	}
	// Warm to steady state: every user at the per-user cap.
	for j := 0; j < 32; j++ {
		for i := range evs {
			if err := st.Apply(evs[i], "bench"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Apply(evs[i%users], "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowRelease measures one releaser tick at lbs-write's
// operating point, scaled from 2,048 users to 256: beijing at r = 1 km,
// every user at the 64-event cap, and 11.25 new check-ins per user per
// tick at fresh uniform coordinates, released through lbsd's mechanism
// (ε = 0.5, δ = 1e-6). Each iteration applies one tick's check-ins,
// which drop as many of the oldest, and ticks once: it counts the new
// events and releases every user's window sum.
func BenchmarkWindowRelease(b *testing.B) {
	const (
		users   = 256
		perUser = 64
		perTick = users * 45 / 4 // 11.25 per user
	)
	city, err := citygen.Generate(citygen.Beijing(1))
	if err != nil {
		b.Fatal(err)
	}
	clock := NewManualClock(baseTime)
	st, err := NewStore(Config{
		MaxUsers:   users,
		MaxPerUser: perUser,
		Clock:      clock.Now,
		City:       city.City,
		Radius:     1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	dpCfg := defense.DefaultDPReleaseConfig()
	dpCfg.Eps, dpCfg.Delta = 0.5, 1e-6
	mech, err := defense.NewDPRelease(gsp.NewService(city.City, 0), nil, dpCfg)
	if err != nil {
		b.Fatal(err)
	}
	rel, err := NewReleaser(st, mech, nil, ReleaserConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, users)
	for i := range ids {
		ids[i] = fmt.Sprintf("user-%04d", i)
	}
	rnd := rand.New(rand.NewPCG(1, 2))
	bounds := city.Bounds
	next := 0
	apply := func(n int) {
		now := clock.Now()
		for range n {
			ev := Event{
				UserID: ids[next%users],
				X:      bounds.MinX + rnd.Float64()*(bounds.MaxX-bounds.MinX),
				Y:      bounds.MinY + rnd.Float64()*(bounds.MaxY-bounds.MinY),
				TS:     now,
			}
			next++
			if err := st.Apply(ev, "bench"); err != nil {
				b.Fatal(err)
			}
		}
	}
	tick := func() {
		if _, err := rel.Tick(clock.Advance(time.Second)); err != nil {
			b.Fatal(err)
		}
	}
	// Warm to steady state: every user at the cap, all counted.
	apply(users * perUser)
	tick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(perTick)
		tick()
	}
}
