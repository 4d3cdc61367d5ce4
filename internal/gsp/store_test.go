package gsp

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"poiagg/internal/geo"
	"poiagg/internal/poi"
	"poiagg/internal/rng"
)

// storeFixture builds a city, a service whose cache holds computed
// entries for keys, and the per-key reference vectors.
func storeFixture(t *testing.T, numKeys int) (*City, *Service, []BatchQuery) {
	t.Helper()
	city := cacheCity(t, 3000, 40)
	svc := NewService(city, 1<<16)
	src := rng.New(55)
	keys := make([]BatchQuery, numKeys)
	for i := range keys {
		x, y := src.UniformIn(0, 0, 20_000, 20_000)
		keys[i] = BatchQuery{L: geo.Point{X: x, Y: y}, R: 500 + float64(i%5)*250}
		svc.Freq(keys[i].L, keys[i].R)
	}
	return city, svc, keys
}

func TestStoreRoundTrip(t *testing.T) {
	city, svc, keys := storeFixture(t, 32)
	// Touch a few keys extra so hit ranking has something to order by.
	for i := 0; i < 8; i++ {
		svc.Freq(keys[i].L, keys[i].R)
	}
	path := filepath.Join(t.TempDir(), StoreFileName)
	n, err := svc.SaveStore(path, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(keys) {
		t.Fatalf("saved %d entries, cache held %d", n, len(keys))
	}
	entries, err := ReadStore(path, city)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(keys) {
		t.Fatalf("read %d entries, wrote %d", len(entries), len(keys))
	}
	bare := NewService(city, 0)
	for i, e := range entries {
		if want := bare.Freq(e.L, e.R); !e.Freq.Equal(want) {
			t.Fatalf("entry %d: stored %v, recompute %v", i, e.Freq, want)
		}
	}
	// The 8 re-touched keys have 1 hit each, the rest 0: hottest first
	// means the first 8 entries are exactly those (in key order).
	hot := map[freqKey]bool{}
	for i := 0; i < 8; i++ {
		hot[freqKey{x: keys[i].L.X, y: keys[i].L.Y, r: keys[i].R}] = true
	}
	for i := 0; i < 8; i++ {
		k := freqKey{x: entries[i].L.X, y: entries[i].L.Y, r: entries[i].R}
		if !hot[k] {
			t.Fatalf("entry %d is cold, hottest must sort first", i)
		}
	}
}

func TestStoreTopNTruncates(t *testing.T) {
	_, svc, _ := storeFixture(t, 32)
	path := filepath.Join(t.TempDir(), StoreFileName)
	n, err := svc.SaveStore(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("saved %d entries with top-10 cap", n)
	}
}

// TestStoreWarmStartServesWithoutRecompute is the warm-start proof: a
// cold service seeded from a snapshot answers every snapshotted key with
// zero CountTypes calls.
func TestStoreWarmStartServesWithoutRecompute(t *testing.T) {
	city, svc, keys := storeFixture(t, 24)
	path := filepath.Join(t.TempDir(), StoreFileName)
	if _, err := svc.SaveStore(path, 1<<10); err != nil {
		t.Fatal(err)
	}
	want := make([]poi.FreqVector, len(keys))
	for i, k := range keys {
		want[i] = svc.Freq(k.L, k.R)
	}

	ci := instrument(city) // count computes from here on
	cold := NewService(city, 1<<16)
	n, err := cold.WarmStart(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(keys) {
		t.Fatalf("warmed %d entries, snapshot held %d", n, len(keys))
	}
	for i, k := range keys {
		if f := cold.Freq(k.L, k.R); !f.Equal(want[i]) {
			t.Fatalf("key %d: warm %v, want %v", i, f, want[i])
		}
	}
	if got := ci.n.Load(); got != 0 {
		t.Errorf("warm start still computed %d keys", got)
	}
	if hits, misses := cold.CacheStats(); misses != 0 || hits != uint64(len(keys)) {
		t.Errorf("hits=%d misses=%d after warm start, want %d/0", hits, misses, len(keys))
	}
	if cold.storeWarmed.Load() != uint64(len(keys)) || cold.storeRejected.Load() != 0 {
		t.Errorf("warmed=%d rejected=%d", cold.storeWarmed.Load(), cold.storeRejected.Load())
	}
}

func TestStoreWarmStartMissingFileIsColdStart(t *testing.T) {
	city := cacheCity(t, 500, 10)
	svc := NewService(city, 1<<8)
	n, err := svc.WarmStart(filepath.Join(t.TempDir(), "absent.bin"))
	if err != nil || n != 0 {
		t.Fatalf("missing snapshot: n=%d err=%v, want 0/nil", n, err)
	}
	if svc.storeRejected.Load() != 0 {
		t.Error("missing file counted as a rejection")
	}
}

// TestStoreWarmStartOverflowKeepsHottest is the seeding-order
// regression test: warm-starting from a snapshot that holds twice the
// cache's capacity must leave, in every shard, exactly that shard's
// hottest snapshot entries. Seeding in snapshot (hottest-first) order
// makes every shard that overflows evict its hottest entries, since the
// second-chance FIFO's oldest untouched entry is the first inserted.
func TestStoreWarmStartOverflowKeepsHottest(t *testing.T) {
	city := cacheCity(t, 3000, 40)
	const capacity = 64
	bare := NewService(city, 0)
	src := rng.New(61)
	// Snapshot order is hottest first.
	entries := make([]StoreEntry, 2*capacity)
	for i := range entries {
		x, y := src.UniformIn(0, 0, 20_000, 20_000)
		l := geo.Point{X: x, Y: y}
		entries[i] = StoreEntry{L: l, R: 800, Freq: bare.Freq(l, 800)}
	}
	path := filepath.Join(t.TempDir(), StoreFileName)
	if err := WriteStore(path, city, entries); err != nil {
		t.Fatal(err)
	}
	svc := NewService(city, capacity)
	if _, err := svc.WarmStart(path); err != nil {
		t.Fatal(err)
	}
	live := map[freqKey]bool{}
	for _, e := range svc.HotEntries(1 << 30) {
		live[freqKey{x: e.L.X, y: e.L.Y, r: e.R}] = true
	}
	c := svc.cache
	seen := make([]int, len(c.shards)) // a shard's entries so far, hottest first
	for i, e := range entries {
		k := freqKey{x: e.L.X, y: e.L.Y, r: e.R}
		sh := k.hash() & c.mask
		if want := seen[sh] < c.shards[sh].cap; live[k] != want {
			t.Errorf("snapshot entry %d, shard %d's #%d hottest of capacity %d: live=%v, want %v",
				i, sh, seen[sh], c.shards[sh].cap, live[k], want)
		}
		seen[sh]++
	}
	overflowed := 0
	for i, n := range seen {
		if n > c.shards[i].cap {
			overflowed++
		}
	}
	if overflowed == 0 {
		t.Fatal("no shard overflowed; test is vacuous")
	}
}

// TestStoreCorruptionMatrix drives every corruption class through
// WarmStart: all must reject with ErrStoreInvalid, bump
// gsp.store.rejected, leave the cache untouched, and fall back to a
// correct cold compute — never serve wrong vectors.
func TestStoreCorruptionMatrix(t *testing.T) {
	city, svc, keys := storeFixture(t, 16)
	dir := t.TempDir()
	good := filepath.Join(dir, StoreFileName)
	if _, err := svc.SaveStore(good, 1<<10); err != nil {
		t.Fatal(err)
	}
	goodBytes, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	otherCity := cacheCity(t, 3000, 40)
	otherCity.Name = "elsewhere" // same layout, different fingerprint

	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated-mid-record", func(t *testing.T, path string) {
			if err := os.WriteFile(path, goodBytes[:len(goodBytes)-7], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated-header-only", func(t *testing.T, path string) {
			if err := os.WriteFile(path, goodBytes[:20], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped-version-byte", func(t *testing.T, path string) {
			b := append([]byte(nil), goodBytes...)
			b[8] ^= 0xff
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped-magic-byte", func(t *testing.T, path string) {
			b := append([]byte(nil), goodBytes...)
			b[0] ^= 0x01
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"mismatched-city-hash", func(t *testing.T, path string) {
			if err := WriteStore(path, otherCity, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"zero-length", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped-record-count-byte", func(t *testing.T, path string) {
			// A flip in the record region — a count of some entry's
			// vector — must fail the payload checksum; header-only
			// validation would silently serve the wrong vector.
			b := append([]byte(nil), goodBytes...)
			b[len(b)-1] ^= 0xff
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped-record-key-byte", func(t *testing.T, path string) {
			b := append([]byte(nil), goodBytes...)
			b[storeHeaderSize+8] ^= 0xff // first record's y coordinate
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"count-overflow", func(t *testing.T, path string) {
			b := append([]byte(nil), goodBytes...)
			for i := 32; i < 40; i++ {
				b[i] = 0xff
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), StoreFileName)
			tc.corrupt(t, path)
			cold := NewService(city, 1<<16)
			rejectedBefore := cold.storeRejected.Load()
			n, err := cold.WarmStart(path)
			if !errors.Is(err, ErrStoreInvalid) {
				t.Fatalf("err = %v, want ErrStoreInvalid", err)
			}
			if n != 0 {
				t.Fatalf("rejected snapshot still seeded %d entries", n)
			}
			if got := cold.storeRejected.Load() - rejectedBefore; got != 1 {
				t.Errorf("gsp.store.rejected bumped by %d, want 1", got)
			}
			if m := cold.CacheMetrics(); m.Size != 0 {
				t.Errorf("rejected snapshot left %d cache entries", m.Size)
			}
			// Cold fallback still serves correct vectors.
			k := keys[0]
			if f := cold.Freq(k.L, k.R); !f.Equal(svc.Freq(k.L, k.R)) {
				t.Error("cold fallback served a wrong vector")
			}
		})
	}
}

// TestStoreStaleSnapshotRejected regenerates the city with a different
// seed — the realistic staleness case: yesterday's snapshot against
// today's data build.
func TestStoreStaleSnapshotRejected(t *testing.T) {
	city, svc, _ := storeFixture(t, 8)
	path := filepath.Join(t.TempDir(), StoreFileName)
	if _, err := svc.SaveStore(path, 1<<10); err != nil {
		t.Fatal(err)
	}
	// Same name and bounds, different POI set.
	types := poi.NewTypeTable()
	for i := 0; i < 40; i++ {
		types.Intern(city.Types.Name(poi.TypeID(i)))
	}
	src := rng.New(99)
	pois := make([]poi.POI, 100)
	for i := range pois {
		x, y := src.UniformIn(0, 0, 20_000, 20_000)
		pois[i] = poi.POI{ID: poi.ID(i), Type: poi.TypeID(src.IntN(40)), Pos: geo.Point{X: x, Y: y}}
	}
	rebuilt, err := NewCity(city.Name, city.Bounds, types, pois)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewService(rebuilt, 1<<8)
	if _, err := fresh.WarmStart(path); !errors.Is(err, ErrStoreInvalid) {
		t.Fatalf("stale snapshot accepted: err = %v", err)
	}
}

func TestCityFingerprintSensitivity(t *testing.T) {
	a := cacheCity(t, 500, 10)
	b := cacheCity(t, 500, 10)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical builds fingerprint differently")
	}
	c := cacheCity(t, 501, 10)
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different POI sets share a fingerprint")
	}
	d := cacheCity(t, 500, 10)
	d.Name = "renamed"
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("renamed city shares a fingerprint")
	}
}

// BenchmarkStoreWarmStart prices warming a cold cache from a 2048-entry
// snapshot against computing the same 2048 vectors cold — the restart
// path the tiered store exists to shortcut.
func BenchmarkStoreWarmStart(b *testing.B) {
	city := cacheCity(b, 20_000, 60)
	svc := NewService(city, 1<<16)
	src := rng.New(12)
	keys := make([]BatchQuery, 2048)
	for i := range keys {
		x, y := src.UniformIn(0, 0, 20_000, 20_000)
		keys[i] = BatchQuery{L: geo.Point{X: x, Y: y}, R: 500 + float64(i%7)*200}
		svc.Freq(keys[i].L, keys[i].R)
	}
	path := filepath.Join(b.TempDir(), StoreFileName)
	n, err := svc.SaveStore(path, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	if n != len(keys) {
		b.Fatalf("snapshot holds %d entries, want %d", n, len(keys))
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cold := NewService(city, 1<<16)
			if _, err := cold.WarmStart(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold-compute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cold := NewService(city, 1<<16)
			out := poi.NewFreqVector(city.M())
			for _, k := range keys {
				cold.FreqInto(out, k.L, k.R)
			}
		}
	})
}

// TestStoreChecksumGolden pins the record checksum to its value before
// the hashes moved into hash64: snapshots on disk carry it, so a change
// would make every existing snapshot fail validation.
func TestStoreChecksumGolden(t *testing.T) {
	buf := make([]byte, 103) // 12 words and a 7-byte tail
	for i := range buf {
		buf[i] = byte(i*37 + 11)
	}
	if got := storeChecksum(buf); got != 0x58ab4a021568413d {
		t.Errorf("storeChecksum = %#x, want 0x58ab4a021568413d", got)
	}
	if got := storeChecksum(nil); got != 0xf52a15e9a9b5e89b {
		t.Errorf("storeChecksum(nil) = %#x, want 0xf52a15e9a9b5e89b", got)
	}
}
