package gsp_test

// Tests of the freq cache on a full-size generated city. They live in
// the external test package because citygen imports gsp.

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"poiagg/internal/citygen"
	"poiagg/internal/geo"
	"poiagg/internal/gsp"
	"poiagg/internal/poi"
	"poiagg/internal/rng"
)

// paperRadii are the paper's query ranges in meters.
var paperRadii = []float64{500, 1000, 2000, 4000}

// nyc generates the daemons' nyc city (30,056 POIs, 272 types, seed 1).
func nyc(tb testing.TB) *citygen.City {
	tb.Helper()
	city, err := citygen.Generate(citygen.NewYork(1))
	if err != nil {
		tb.Fatal(err)
	}
	return city
}

// TestCachedFreqMatchesUncachedNYC is the packed cache's differential: a
// 64-entry cache, small enough that evictions, slot reuse and arena
// compactions never stop, must answer every nyc Freq at the paper's
// radii exactly as an uncached service does. Eight goroutines mix a
// shared pool of repeated keys (hits and singleflight joins) with fresh
// ones (misses), and one of them keeps snapshotting the cache and
// warm-starting it from the snapshot, which refreshes live keys. Readers
// therefore unpack while other goroutines append to and compact the same
// shard; under -race this is the arena's data-race proof.
func TestCachedFreqMatchesUncachedNYC(t *testing.T) {
	city := nyc(t)
	const capacity = 64
	svc := gsp.NewService(city.City, capacity)
	bare := gsp.NewService(city.City, 0)
	pool := city.RandomLocations(12, 3)
	want := make([]poi.FreqVector, len(pool)*len(paperRadii))
	for i := range want {
		want[i] = bare.Freq(pool[i/len(paperRadii)], paperRadii[i%len(paperRadii)])
	}
	path := filepath.Join(t.TempDir(), gsp.StoreFileName)

	const workers, ops = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(uint64(100 + g))
			fresh := city.RandomLocations(ops, uint64(200+g))
			out := poi.NewFreqVector(city.M())
			for i := 0; i < ops; i++ {
				if g == 0 && i%25 == 24 {
					if _, err := svc.SaveStore(path, capacity); err != nil {
						t.Error(err)
						return
					}
					if _, err := svc.WarmStart(path); err != nil {
						t.Error(err)
						return
					}
				}
				var l geo.Point
				var r float64
				var exp poi.FreqVector
				if src.IntN(2) == 0 {
					k := src.IntN(len(want))
					l, r, exp = pool[k/len(paperRadii)], paperRadii[k%len(paperRadii)], want[k]
				} else {
					l, r = fresh[i], paperRadii[src.IntN(len(paperRadii))]
					exp = bare.Freq(l, r)
				}
				for j := range out {
					out[j] = -77
				}
				svc.FreqInto(out, l, r)
				if !out.Equal(exp) {
					t.Errorf("worker %d op %d: cached Freq(%v, %g) differs from uncached", g, i, l, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	m := svc.CacheMetrics()
	if m.Hits == 0 || m.Misses == 0 {
		t.Errorf("hits=%d misses=%d: the mix must both hit and miss", m.Hits, m.Misses)
	}
	if m.Evictions < 10*capacity {
		t.Errorf("%d evictions from a %d-entry cache: too few to cycle every shard's arena", m.Evictions, capacity)
	}
	t.Logf("hits=%d misses=%d evictions=%d joined=%d", m.Hits, m.Misses, m.Evictions, svc.SingleflightMetrics().Hits)
}

// TestCacheResidentBytesPerEntry bounds the heap a cached entry keeps:
// after 20,000 distinct nyc keys at the paper's radii, the live heap may
// have grown by at most a quarter of a dense vector (272 types × 8 B =
// 2,176 B, itself a 2,304-B allocation) per entry.
func TestCacheResidentBytesPerEntry(t *testing.T) {
	city := nyc(t)
	const entries = 20_000
	locs := city.RandomLocations(entries, 5)
	out := poi.NewFreqVector(city.M())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	svc := gsp.NewService(city.City, 1<<18)
	for i, l := range locs {
		svc.FreqInto(out, l, paperRadii[i%len(paperRadii)])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := svc.CacheMetrics().Size; n != entries {
		t.Fatalf("cache holds %d entries, want %d distinct", n, entries)
	}
	perEntry := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / entries
	limit := int64(city.M() * 8 / 4)
	t.Logf("%d B resident per entry (limit %d B, dense vector %d B)", perEntry, limit, city.M()*8)
	if perEntry > limit {
		t.Errorf("%d B resident per cached entry, want at most %d", perEntry, limit)
	}
	runtime.KeepAlive(svc)
}
