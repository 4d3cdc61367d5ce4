package gsp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poiagg/internal/geo"
	"poiagg/internal/index"
	"poiagg/internal/poi"
	"poiagg/internal/rng"
)

// countingIndex wraps an index and counts CountTypes invocations — the
// instrument that proves "exactly one compute per key".
type countingIndex struct {
	index.Index
	n atomic.Int64
}

func (ci *countingIndex) CountTypes(out poi.FreqVector, center geo.Point, radius float64) {
	ci.n.Add(1)
	ci.Index.CountTypes(out, center, radius)
}

// instrument swaps a counting index into the city and returns the
// counter. Tests own the city, so mutating the private field is safe.
func instrument(city *City) *countingIndex {
	ci := &countingIndex{Index: city.idx}
	city.idx = ci
	return ci
}

// TestSingleflightCollapsesConcurrentMisses is the torture test: rounds
// of fresh keys, each hammered by many goroutines released together, and
// every round must cost exactly one CountTypes per key. Run under -race
// this is also the in-flight calls' data-race proof.
func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	city := cacheCity(t, 3000, 40)
	ci := instrument(city)
	svc := NewService(city, 1<<16)
	bare := NewService(city, 0)

	const (
		rounds     = 20
		keysPer    = 4
		goroutines = 16
	)
	src := rng.New(41)
	for round := 0; round < rounds; round++ {
		keys := make([]BatchQuery, keysPer)
		want := make([]poi.FreqVector, keysPer)
		for i := range keys {
			x, y := src.UniformIn(0, 0, 20_000, 20_000)
			keys[i] = BatchQuery{L: geo.Point{X: x, Y: y}, R: 600 + float64(i)*300}
			want[i] = bare.Freq(keys[i].L, keys[i].R)
		}
		before := ci.n.Load()

		var start, done sync.WaitGroup
		start.Add(1)
		errs := make(chan error, goroutines*keysPer)
		for g := 0; g < goroutines; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				out := poi.NewFreqVector(city.M())
				for i, k := range keys {
					svc.FreqInto(out, k.L, k.R)
					if !out.Equal(want[i]) {
						errs <- fmt.Errorf("key %d: got %v want %v", i, out, want[i])
					}
				}
			}()
		}
		start.Done()
		done.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// before was sampled after the bare reference computes, so the
		// delta counts only svc's computes.
		if got := ci.n.Load() - before; got != keysPer {
			t.Fatalf("round %d: %d computes for %d keys, want exactly 1 per key", round, got, keysPer)
		}
	}
	m := svc.SingleflightMetrics()
	if m.Leader == 0 {
		t.Error("no leaders recorded")
	}
	if m.Hits != m.Shared {
		t.Errorf("hits=%d shared=%d: joiners lost a leader result without any panic", m.Hits, m.Shared)
	}
	t.Logf("leader=%d joined=%d shared=%d", m.Leader, m.Hits, m.Shared)
}

// panicOnceIndex panics on the first CountTypes call and answers
// normally afterwards — the poisoned-leader scenario. The first call
// panics only once ready reports true (or after 10 s), so a test can
// hold the leader until the other requests have joined its call.
type panicOnceIndex struct {
	index.Index
	tripped atomic.Bool
	ready   func() bool
}

func (p *panicOnceIndex) CountTypes(out poi.FreqVector, center geo.Point, radius float64) {
	if p.tripped.CompareAndSwap(false, true) {
		for deadline := time.Now().Add(10 * time.Second); !p.ready() && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		panic("singleflight test: leader poisoned")
	}
	p.Index.CountTypes(out, center, radius)
}

// TestSingleflightLeaderPanicDoesNotPoisonWaiters arranges a leader
// whose compute panics while every other request waits on it: the
// panic must reach only the leader's caller, every joiner must fall
// back, compute and store the key itself — the first store inserts it,
// the rest refresh the live entry — and return the correct vector, and
// the shard must not leak the dead call (a later request for the key
// must succeed normally).
func TestSingleflightLeaderPanicDoesNotPoisonWaiters(t *testing.T) {
	city := cacheCity(t, 2000, 30)
	want := NewService(city, 0).Freq(geo.Point{X: 5000, Y: 5000}, 800)
	poisoned := &panicOnceIndex{Index: city.idx}
	city.idx = poisoned
	svc := NewService(city, 1<<10)

	const goroutines = 12
	poisoned.ready = func() bool { return svc.SingleflightMetrics().Hits == goroutines-1 }
	l := geo.Point{X: 5000, Y: 5000}
	var panics atomic.Int64
	var start, done sync.WaitGroup
	start.Add(1)
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			defer func() {
				if recover() != nil {
					panics.Add(1)
				}
			}()
			start.Wait()
			if f := svc.Freq(l, 800); !f.Equal(want) {
				errs <- fmt.Errorf("got %v want %v", f, want)
			}
		}()
	}
	start.Done()
	done.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := panics.Load(); got != 1 {
		t.Errorf("%d goroutines observed the panic, want exactly the leader (1)", got)
	}
	m := svc.SingleflightMetrics()
	if m.Hits != goroutines-1 || m.Shared != 0 {
		t.Errorf("joins=%d shared=%d, want %d joiners that all fell back", m.Hits, m.Shared, goroutines-1)
	}
	if n := svc.CacheMetrics().Size; n != 1 {
		t.Errorf("cache holds %d entries after the joiners stored one key, want 1", n)
	}
	// The dead call must be unregistered, and a fresh request works.
	for i := range svc.cache.shards {
		if n := len(svc.cache.shards[i].calls); n != 0 {
			t.Errorf("shard %d still holds %d in-flight calls", i, n)
		}
	}
	if f := svc.Freq(l, 800); !f.Equal(want) {
		t.Errorf("post-panic request: got %v want %v", f, want)
	}
}

// TestSingleflightWaiterMutationIsolated has every concurrent requester
// scribble over the vector it received; the cache and every other
// requester must be unaffected — the copy-out-per-waiter contract.
func TestSingleflightWaiterMutationIsolated(t *testing.T) {
	city := cacheCity(t, 2000, 30)
	svc := NewService(city, 1<<10)
	l := geo.Point{X: 7000, Y: 7000}
	want := NewService(city, 0).Freq(l, 900)

	const goroutines = 16
	var start, done sync.WaitGroup
	start.Add(1)
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			f := svc.Freq(l, 900)
			if !f.Equal(want) {
				errs <- fmt.Errorf("goroutine %d: got %v want %v", g, f, want)
				return
			}
			for i := range f {
				f[i] = -g // scribble
			}
		}(g)
	}
	start.Done()
	done.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if f := svc.Freq(l, 900); !f.Equal(want) {
		t.Errorf("cache corrupted by waiter mutation: got %v want %v", f, want)
	}
}

// TestFreqBatchDedupesDuplicateItems is the satellite fix's proof: a
// batch full of duplicate (L, R) items computes each unique key exactly
// once, preserves order, and hands every index its own private vector.
func TestFreqBatchDedupesDuplicateItems(t *testing.T) {
	city := cacheCity(t, 2000, 30)
	ci := instrument(city)
	svc := NewService(city, 1<<10)
	bare := NewService(city, 0)

	uniq := []BatchQuery{
		{L: geo.Point{X: 1000, Y: 1000}, R: 500},
		{L: geo.Point{X: 9000, Y: 4000}, R: 800},
		{L: geo.Point{X: 15000, Y: 12000}, R: 1200},
	}
	want := make([]poi.FreqVector, len(uniq))
	for i, q := range uniq {
		want[i] = bare.Freq(q.L, q.R)
	}
	// 60 items cycling through 3 unique keys. The reference computes
	// above also ran through ci, so count from here.
	start := ci.n.Load()
	reqs := make([]BatchQuery, 60)
	for i := range reqs {
		reqs[i] = uniq[i%len(uniq)]
	}
	out := svc.FreqBatch(reqs)
	if got := ci.n.Load() - start; got != int64(len(uniq)) {
		t.Fatalf("%d computes for %d unique keys", got, len(uniq))
	}
	for i, f := range out {
		if !f.Equal(want[i%len(uniq)]) {
			t.Fatalf("item %d: got %v want %v", i, f, want[i%len(uniq)])
		}
	}
	// Results must not alias: scribbling one leaves its duplicates intact.
	out[0][0] = -777
	if out[3][0] == -777 || out[len(out)-len(uniq)][0] == -777 {
		t.Error("duplicate items share a vector")
	}
	// A second identical batch is all cache hits — zero new computes.
	before := ci.n.Load()
	svc.FreqBatch(reqs)
	if got := ci.n.Load() - before; got != 0 {
		t.Errorf("repeat batch recomputed %d keys", got)
	}
}

// BenchmarkFreqSingleflight prices the miss coalescer on both shapes of
// the hot path: uncontended misses (pure bookkeeping overhead on top of
// the compute) and contended misses (8 goroutines requesting the same
// fresh key — the duplicate-collapse payoff, one compute shared 8 ways).
func BenchmarkFreqSingleflight(b *testing.B) {
	city := cacheCity(b, 20_000, 60)
	b.Run("uncontended", func(b *testing.B) {
		svc := NewService(city, 1<<16)
		out := poi.NewFreqVector(city.M())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Monotone radius keeps every key a fresh miss.
			svc.FreqInto(out, geo.Point{X: 10_000, Y: 10_000}, 500+float64(i)*1e-6)
		}
	})
	b.Run("contended", func(b *testing.B) {
		const workers = 8
		svc := NewService(city, 1<<16)
		outs := make([]poi.FreqVector, workers)
		for w := range outs {
			outs[w] = poi.NewFreqVector(city.M())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := geo.Point{X: 10_000, Y: 10_000}
			r := 500 + float64(i)*1e-6
			var done sync.WaitGroup
			for w := 0; w < workers; w++ {
				done.Add(1)
				go func(w int) {
					defer done.Done()
					svc.FreqInto(outs[w], l, r)
				}(w)
			}
			done.Wait()
		}
		m := svc.SingleflightMetrics()
		b.ReportMetric(float64(m.Shared)/float64(b.N), "shared/op")
	})
}
