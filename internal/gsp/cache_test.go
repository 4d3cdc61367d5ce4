package gsp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"poiagg/internal/geo"
	"poiagg/internal/poi"
	"poiagg/internal/rng"
)

// cacheCity builds a mid-size city for cache tests and benchmarks:
// enough POIs that a Freq miss does real index work.
func cacheCity(tb testing.TB, numPOIs, numTypes int) *City {
	tb.Helper()
	types := poi.NewTypeTable()
	for i := 0; i < numTypes; i++ {
		types.Intern(fmt.Sprintf("t%d", i))
	}
	src := rng.New(9)
	pois := make([]poi.POI, numPOIs)
	for i := range pois {
		x, y := src.UniformIn(0, 0, 20_000, 20_000)
		pois[i] = poi.POI{ID: poi.ID(i), Type: poi.TypeID(src.IntN(numTypes)), Pos: geo.Point{X: x, Y: y}}
	}
	city, err := NewCity("cache-bench", geo.Rect{MaxX: 20_000, MaxY: 20_000}, types, pois)
	if err != nil {
		tb.Fatal(err)
	}
	return city
}

// TestFreqCacheShardedRaceStress hammers the sharded cache from
// GOMAXPROCS goroutines with overlapping keys at three capacities —
// pathological (1), exactly one entry per shard, and effectively
// unbounded — and asserts the hit/miss/eviction bookkeeping stays
// consistent and every returned vector is correct. Run under -race this
// is the cache's data-race proof.
func TestFreqCacheShardedRaceStress(t *testing.T) {
	city := cacheCity(t, 3000, 40)
	// Shard count the cache picks when capacity does not constrain it.
	maxShards := len(newShardedCache(1 << 16).shards)

	// Reference answers from an uncached service.
	bare := NewService(city, 0)
	const numKeys = 150
	keys := make([]BatchQuery, numKeys)
	want := make([]poi.FreqVector, numKeys)
	src := rng.New(77)
	for i := range keys {
		x, y := src.UniformIn(0, 0, 20_000, 20_000)
		keys[i] = BatchQuery{L: geo.Point{X: x, Y: y}, R: 500 + float64(i%4)*500}
		want[i] = bare.Freq(keys[i].L, keys[i].R)
	}

	for _, capacity := range []int{1, maxShards, 1 << 16} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			svc := NewService(city, capacity)
			workers := runtime.GOMAXPROCS(0)
			const opsPerWorker = 2000
			var ops atomic.Uint64
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rng.New(uint64(g) + 1)
					for i := 0; i < opsPerWorker; i++ {
						k := r.IntN(numKeys)
						f := svc.Freq(keys[k].L, keys[k].R)
						ops.Add(1)
						if !f.Equal(want[k]) {
							t.Errorf("key %d: wrong vector under contention", k)
							return
						}
						// Mutating the returned copy must never poison
						// later reads.
						if len(f) > 0 {
							f[0] += 17
						}
					}
				}(g)
			}
			wg.Wait()

			m := svc.CacheMetrics()
			// Every lookup counts exactly one hit or one miss, and every
			// miss exactly one leader or one join.
			sf := svc.SingleflightMetrics()
			if got := m.Hits + m.Misses; got != ops.Load() {
				t.Errorf("hits %d + misses %d = %d, want %d lookups", m.Hits, m.Misses, got, ops.Load())
			}
			if got := sf.Leader + sf.Hits; got != m.Misses {
				t.Errorf("leaders %d + joiners %d = %d, want %d misses", sf.Leader, sf.Hits, got, m.Misses)
			}
			if m.Capacity != capacity {
				t.Errorf("capacity = %d, want %d", m.Capacity, capacity)
			}
			if m.Size > m.Capacity {
				t.Errorf("size %d exceeds capacity %d", m.Size, m.Capacity)
			}
			// Every live entry and every eviction came from one leader's
			// fill: a key in flight has no entry, so no fill overwrites.
			if uint64(m.Size)+m.Evictions != sf.Leader {
				t.Errorf("size %d + evictions %d != %d leaders", m.Size, m.Evictions, sf.Leader)
			}
			if capacity < numKeys && m.Evictions == 0 {
				t.Errorf("capacity %d below working set %d but no evictions", capacity, numKeys)
			}
			if capacity >= (1<<16) && m.Evictions != 0 {
				t.Errorf("huge capacity evicted %d entries", m.Evictions)
			}
		})
	}
}

// TestFreqCacheHotKeysSurviveEviction pins the eviction-policy fix: the
// pre-sharding cache wiped everything on overflow, so a full cache
// degraded to a 0% hit rate mid-sweep. With per-entry LRU eviction a key
// re-accessed every iteration must never be evicted, no matter how many
// cold keys stream past it.
func TestFreqCacheHotKeysSurviveEviction(t *testing.T) {
	city := cacheCity(t, 1500, 30)
	// 256 ≥ 2× the shard-count cap, so every shard holds ≥ 2 entries;
	// the hot key's touched bit is re-set between any two eviction scans
	// that reach it, so second-chance can never pick it as the victim
	// while untouched cold entries stream past.
	svc := NewService(city, 256)
	hot := geo.Point{X: 10_000, Y: 10_000}
	const iters = 5000
	for i := 0; i < iters; i++ {
		svc.Freq(hot, 900)
		svc.Freq(geo.Point{X: float64(i), Y: float64(2 * i)}, 900)
	}
	m := svc.CacheMetrics()
	if m.Evictions == 0 {
		t.Fatal("cold-key stream never overflowed the cache; test is vacuous")
	}
	// Hot key: 1 miss then iters-1 hits. Cold keys: all distinct misses.
	if m.Hits != iters-1 {
		t.Errorf("hot-key hits = %d, want %d (hot key was evicted)", m.Hits, iters-1)
	}
	if m.Misses != iters+1 {
		t.Errorf("misses = %d, want %d", m.Misses, iters+1)
	}
	if m.Size > m.Capacity {
		t.Errorf("size %d exceeds capacity %d", m.Size, m.Capacity)
	}
}

// TestFreqCacheLRUOrder pins per-shard second-chance semantics
// deterministically on a single shard: re-accessing an entry protects
// it, the oldest untouched entry is the victim (LRU order for this
// access pattern).
func TestFreqCacheLRUOrder(t *testing.T) {
	c := &shardedCache{shards: make([]cacheShard, 1)}
	c.shards[0].init(2)
	k := func(i int) freqKey { return freqKey{x: float64(i)} }
	v := poi.FreqVector{1}

	c.put(k(1), v)
	c.put(k(2), v)
	if !cached(c, k(1)) { // 1 becomes MRU
		t.Fatal("k1 missing")
	}
	c.put(k(3), v) // evicts 2, the LRU
	if cached(c, k(2)) {
		t.Error("k2 should have been evicted")
	}
	if !cached(c, k(1)) {
		t.Error("k1 (recently used) was evicted")
	}
	if !cached(c, k(3)) {
		t.Error("k3 (just inserted) was evicted")
	}
	m, _ := c.metrics()
	if m.Evictions != 1 || m.Size != 2 {
		t.Errorf("evictions=%d size=%d, want 1/2", m.Evictions, m.Size)
	}
}

// cached reports whether a lookup of k hits. On a miss it ends the call
// the lookup registered without computing, so it suits single-goroutine
// tests only, where every miss leads.
func cached(c *shardedCache, k freqKey) bool {
	s := c.shardFor(k)
	_, call, _ := s.lookup(k)
	if call != nil {
		s.fill(k, call, nil)
	}
	return call == nil
}

// TestPackedRoundTrip is the packed encoding's property test: random
// vectors of 1 to 4,096 types at every density with counts up to 2^40,
// plus the all-zero vector and vectors whose only nonzero type is the
// first or the last, must unpack to exactly the vector packed. Vectors
// are packed back to back into one buffer, as a shard's arena holds
// them, and each is unpacked into a buffer poisoned with -77, which
// every slot must overwrite.
func TestPackedRoundTrip(t *testing.T) {
	src := rng.New(13)
	var vecs []poi.FreqVector
	for _, m := range []int{1, 2, 127, 128, 129, 272, 4096} {
		first, last := poi.NewFreqVector(m), poi.NewFreqVector(m)
		first[0], last[m-1] = 1<<40, 1<<40
		vecs = append(vecs, poi.NewFreqVector(m), first, last)
	}
	for i := 0; i < 500; i++ {
		f := poi.NewFreqVector(1 + src.IntN(4096))
		density := src.Float64()
		for j := range f {
			if src.Float64() < density {
				// 1 to 2^40, spread over every varint length.
				f[j] = 1 + int(src.Uint64()>>(24+src.IntN(40)))
			}
		}
		vecs = append(vecs, f)
	}
	var arena []byte
	offs := make([]int, len(vecs)+1)
	for i, f := range vecs {
		arena = appendPacked(arena, f)
		offs[i+1] = len(arena)
	}
	for i, want := range vecs {
		got := poi.NewFreqVector(len(want))
		for j := range got {
			got[j] = -77
		}
		unpackFreq(got, arena[offs[i]:offs[i+1]])
		if !got.Equal(want) {
			t.Fatalf("vector %d (M=%d): round trip changed it", i, len(want))
		}
	}
}

// TestFreqCacheArenaBound pins the arena's compaction bound under churn
// with refreshes: after every put each shard's dead bytes are at most
// its live bytes, the live count is exactly the bytes its entries refer
// to, and every live entry unpacks to the vector last stored under its
// key.
func TestFreqCacheArenaBound(t *testing.T) {
	const m = 50
	c := newShardedCache(32)
	src := rng.New(17)
	want := map[freqKey]poi.FreqVector{}
	prevLen := make([]int, len(c.shards))
	compactions := 0
	for i := 0; i < 5000; i++ {
		k := freqKey{x: float64(src.IntN(200)), r: 1}
		f := poi.NewFreqVector(m)
		for j := src.IntN(20); j >= 0; j-- {
			f[src.IntN(m)] = src.IntN(1000)
		}
		c.put(k, f)
		want[k] = f
		for j := range c.shards {
			s := &c.shards[j]
			refs := 0
			for _, si := range s.index {
				refs += s.slots[si].n
			}
			if refs != s.live {
				t.Fatalf("put %d shard %d: live=%d, entries refer to %d bytes", i, j, s.live, refs)
			}
			if dead := len(s.arena) - s.live; dead > s.live {
				t.Fatalf("put %d shard %d: %d dead bytes exceed %d live", i, j, dead, s.live)
			}
			if len(s.arena) < prevLen[j] {
				compactions++
			}
			prevLen[j] = len(s.arena)
		}
	}
	if compactions == 0 {
		t.Fatal("no shard ever compacted; test is vacuous")
	}
	got := poi.NewFreqVector(m)
	for j := range c.shards {
		s := &c.shards[j]
		for k, si := range s.index {
			unpackFreq(got, s.packed(&s.slots[si]))
			if !got.Equal(want[k]) {
				t.Fatalf("key %v: cached %v, last stored %v", k, got, want[k])
			}
		}
	}
}

// TestFreqBatchMatchesSequential proves FreqBatch/QueryBatch are a pure
// fan-out: results in order, identical to one-at-a-time calls.
func TestFreqBatchMatchesSequential(t *testing.T) {
	city := cacheCity(t, 2000, 35)
	svc := NewService(city, 1<<12)
	bare := NewService(city, 0)
	src := rng.New(5)
	reqs := make([]BatchQuery, 300)
	for i := range reqs {
		x, y := src.UniformIn(0, 0, 20_000, 20_000)
		reqs[i] = BatchQuery{L: geo.Point{X: x, Y: y}, R: 400 + float64(i%5)*300}
	}
	freqs := svc.FreqBatch(reqs)
	if len(freqs) != len(reqs) {
		t.Fatalf("FreqBatch returned %d results, want %d", len(freqs), len(reqs))
	}
	for i, f := range freqs {
		if !f.Equal(bare.Freq(reqs[i].L, reqs[i].R)) {
			t.Fatalf("FreqBatch[%d] differs from sequential Freq", i)
		}
	}
	pois := svc.QueryBatch(reqs[:50])
	for i, ps := range pois {
		if len(ps) != len(bare.Query(reqs[i].L, reqs[i].R)) {
			t.Fatalf("QueryBatch[%d] differs from sequential Query", i)
		}
	}
	if got := svc.FreqBatch(nil); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}

// BenchmarkFreqCacheSharded drives the attacks' real access pattern — a
// hot anchor set re-probed constantly while sweep locations stream past
// once — through the Service's cache in parallel (DESIGN.md §5). Its one
// sub-benchmark keeps the name "sharded", which BENCH_core.json's
// baseline entry matches.
func BenchmarkFreqCacheSharded(b *testing.B) {
	city := cacheCity(b, 5000, 50)
	const capacity = 512
	src := rng.New(3)
	hot := make([]BatchQuery, 256)
	for i := range hot {
		x, y := src.UniformIn(0, 0, 20_000, 20_000)
		hot[i] = BatchQuery{L: geo.Point{X: x, Y: y}, R: 2000}
	}
	var coldSeq atomic.Int64
	b.Run("sharded", func(b *testing.B) {
		svc := NewService(city, capacity)
		for _, p := range hot {
			svc.Freq(p.L, p.R)
		}
		b.ReportAllocs()
		// 8× GOMAXPROCS goroutines so lock contention shows even on
		// boxes with few cores (a loaded GSP serves far more
		// connections than cores).
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if i%10 == 9 {
					// One-shot sweep location, never probed again.
					c := coldSeq.Add(1)
					svc.Freq(geo.Point{X: float64(c%997) * 20, Y: float64(c%499) * 40}, 2000)
				} else {
					p := hot[i%len(hot)]
					svc.Freq(p.L, p.R)
				}
				i++
			}
		})
	})
}

// BenchmarkFreqBatch prices the worker-pool fan-out against a serial
// loop over the same uncached probe set.
func BenchmarkFreqBatch(b *testing.B) {
	city := cacheCity(b, 5000, 50)
	src := rng.New(4)
	reqs := make([]BatchQuery, 256)
	for i := range reqs {
		x, y := src.UniformIn(0, 0, 20_000, 20_000)
		reqs[i] = BatchQuery{L: geo.Point{X: x, Y: y}, R: 2000}
	}
	b.Run("batch", func(b *testing.B) {
		svc := NewService(city, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			svc.FreqBatch(reqs)
		}
	})
	b.Run("sequential", func(b *testing.B) {
		svc := NewService(city, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, rq := range reqs {
				svc.Freq(rq.L, rq.R)
			}
		}
	})
}
