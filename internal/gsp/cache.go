package gsp

import (
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"sync"

	"poiagg/internal/hash64"
	"poiagg/internal/obs"
	"poiagg/internal/poi"
)

// freqCache is the Service's memoization backend. Implementations must
// be safe for concurrent use. Vectors are held packed (appendPacked):
// put packs the caller's vector — which it does not retain — and returns
// the packed bytes it stored; get, peek and hottest return stored packed
// bytes. Bytes a cache has returned are never rewritten, so callers
// unpack them (unpackFreq) without holding any lock, and must not modify
// them.
type freqCache interface {
	get(k freqKey) ([]byte, bool)
	// peek is get for the singleflight leader re-check: a present key
	// counts as a hit (it serves the request), an absent one counts
	// nothing — the miss was already recorded by the get that led here.
	peek(k freqKey) ([]byte, bool)
	put(k freqKey, f poi.FreqVector) []byte
	metrics() CacheMetrics
	// hottest returns up to n live entries ordered by per-entry hit
	// count, hottest first — the tiered store snapshots these.
	hottest(n int) []hotEntry
}

// hotEntry is one cache entry paired with its lifetime hit count; val is
// the cache's packed vector and must not be mutated.
type hotEntry struct {
	key  freqKey
	val  []byte
	hits uint64
}

// appendPacked appends f to dst in the cache's packed form: for each
// nonzero count in type order, the uvarint gap from the type after the
// previous nonzero one, then the varint (zigzag) count. An all-zero
// vector packs to no bytes. A disk at the paper's radii holds few of a
// city's types (on average 37 of nyc's 272), so the packed vector is a
// small fraction of the dense one's 8·M bytes, for any M and any count.
func appendPacked(dst []byte, f poi.FreqVector) []byte {
	next := 0
	for t, n := range f {
		if n == 0 {
			continue
		}
		gap := uint64(t - next)
		zz := uint64(int64(n)<<1) ^ uint64(int64(n)>>63) // zigzag, as binary.AppendVarint
		if gap < 0x80 && zz < 0x80 {
			dst = append(dst, byte(gap), byte(zz))
		} else {
			dst = binary.AppendUvarint(dst, gap)
			dst = binary.AppendUvarint(dst, zz)
		}
		next = t + 1
	}
	return dst
}

// unpackFreq overwrites every entry of out with the vector b packs. b
// must come from appendPacked over a vector of len(out) types. Gaps and
// most counts fit one varint byte, so that case is decoded inline.
func unpackFreq(out poi.FreqVector, b []byte) {
	clear(out)
	t := 0
	for i := 0; i < len(b); {
		gap := uint64(b[i])
		if gap < 0x80 {
			i++
		} else {
			gap, i = uvarintAt(b, i)
		}
		zz := uint64(b[i])
		if zz < 0x80 {
			i++
		} else {
			zz, i = uvarintAt(b, i)
		}
		t += int(gap)
		out[t] = int(int64(zz>>1) ^ -int64(zz&1)) // undo the zigzag
		t++
	}
}

// uvarintAt decodes the uvarint at b[i:] and returns it with the index
// just past it.
func uvarintAt(b []byte, i int) (uint64, int) {
	v, k := binary.Uvarint(b[i:])
	if k <= 0 {
		panic("gsp: corrupt packed freq vector")
	}
	return v, i + k
}

// CacheMetrics is a point-in-time view of the Freq cache's bookkeeping.
type CacheMetrics struct {
	// Hits and Misses count lookups. A Freq call is normally exactly
	// one of the two; a miss rescued by the singleflight leader
	// re-check (singleflight.go) counts one miss plus one hit.
	Hits, Misses uint64
	// Evictions counts entries dropped by the LRU policy — individual
	// entries, not whole-cache wipes.
	Evictions uint64
	// Size is the number of live entries; Capacity the configured bound.
	Size, Capacity int
	// Shards is the number of lock shards (1 for the single-lock
	// ablation baseline).
	Shards int
}

// Cache metric names registered by Service.ExportMetrics.
const (
	MetricCacheHits      = "gsp.cache.hits"
	MetricCacheMisses    = "gsp.cache.misses"
	MetricCacheEvictions = "gsp.cache.evictions"
	MetricCacheSize      = "gsp.cache.size"
)

// ExportMetrics publishes the cache's hit/miss/eviction/size counters,
// the singleflight leader/shared/hits counters, and the tiered store's
// warmed/rejected counters into reg, sampled lazily at snapshot time so
// the Freq hot path pays nothing for the export. No-op when caching is
// disabled.
func (s *Service) ExportMetrics(reg *obs.Registry) {
	if s.cache == nil || reg == nil {
		return
	}
	reg.CounterFunc(MetricCacheHits, func() uint64 { return s.cache.metrics().Hits })
	reg.CounterFunc(MetricCacheMisses, func() uint64 { return s.cache.metrics().Misses })
	reg.CounterFunc(MetricCacheEvictions, func() uint64 { return s.cache.metrics().Evictions })
	reg.CounterFunc(MetricCacheSize, func() uint64 { return uint64(s.cache.metrics().Size) })
	reg.CounterFunc(MetricSFLeader, func() uint64 { return s.SingleflightMetrics().Leader })
	reg.CounterFunc(MetricSFShared, func() uint64 { return s.SingleflightMetrics().Shared })
	reg.CounterFunc(MetricSFHits, func() uint64 { return s.SingleflightMetrics().Hits })
	reg.CounterFunc(MetricStoreWarmed, func() uint64 { return s.storeWarmed.Load() })
	reg.CounterFunc(MetricStoreRejected, func() uint64 { return s.storeRejected.Load() })
}

// hash mixes the key's coordinate bits through the splitmix64 finalizer
// so that the regular lattices attack sweeps probe (anchor POIs on a
// grid, a handful of radii) spread evenly across shards.
func (k freqKey) hash() uint64 {
	h := hash64.Mix(math.Float64bits(k.x) ^ 0x9e3779b97f4a7c15)
	h = hash64.Mix(h ^ math.Float64bits(k.y))
	return hash64.Mix(h ^ math.Float64bits(k.r))
}

// slot is one memoized Freq result: its key, where its packed vector
// lives in the shard's arena, and its link on the shard's second-chance
// FIFO queue (or, once evicted, on the free-slot list).
type slot struct {
	key    freqKey
	off, n int   // packed vector = arena[off : off+n]
	next   int32 // next slot on the FIFO or free list; -1 ends it
	// touched is the second-chance bit: set by a hit, cleared when the
	// eviction scan passes the entry over.
	touched bool
	// hits counts lookups that returned this entry; the tiered store
	// ranks entries by it when snapshotting the hottest.
	hits uint64
}

// cacheShard is one lock domain of the sharded cache. No per-entry
// state holds a pointer: the index maps pointer-free keys to int32 slot
// numbers, slots link by number, and every packed vector lives in one
// []byte arena. The runtime allocates all three as no-scan memory, so a
// GC cycle marks the slot table, the arena and the map's tables (one
// per up to 1,024 entries) instead of two objects per entry.
type cacheShard struct {
	mu    sync.Mutex
	index map[freqKey]int32
	slots []slot
	head  int32 // oldest live slot; -1 when empty
	tail  int32 // newest live slot; -1 when empty
	free  int32 // first free slot; -1 when none
	// arena holds the packed vectors. Bytes below len(arena) are never
	// rewritten: a refresh or an eviction leaves its old bytes dead in
	// place, and compaction copies the live ones into a fresh arena, so
	// a slice returned by get stays valid and unchanged after the lock
	// is released.
	arena []byte
	live  int // arena bytes that live slots refer to
	cap   int

	hits, misses, evictions uint64
}

func (s *cacheShard) init(capacity int) {
	s.cap = capacity
	s.index = make(map[freqKey]int32, min(capacity, 1024))
	s.head, s.tail, s.free = -1, -1, -1
}

// shardedCache is the production Freq cache: power-of-two lock shards
// selected by hashed key, per-shard second-chance (CLOCK) eviction —
// the classic one-bit LRU approximation. A hit only sets the entry's
// touched bit, so the hit critical section is exactly a map lookup (no
// recency-list surgery), and eviction is true per-entry: the oldest
// untouched entry goes, recently used entries are spared. Concurrent
// sweeps therefore contend only when their keys collide on a shard, and
// a full cache sheds cold entries instead of wiping the hot working set
// (the pre-sharding design's clear-all degraded to a 0% hit rate
// mid-sweep every time it filled).
type shardedCache struct {
	shards []cacheShard
	mask   uint64
}

// shardCountFor picks the shard count: a power of two sized to roughly
// 2× the available parallelism (capped at 128), shrunk so every shard
// keeps capacity ≥ 1.
func shardCountFor(capacity int) int {
	n := 1
	for n < 2*runtime.GOMAXPROCS(0) && n < 128 {
		n <<= 1
	}
	for n > capacity && n > 1 {
		n >>= 1
	}
	return n
}

func newShardedCache(capacity int) *shardedCache {
	n := shardCountFor(capacity)
	c := &shardedCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		sc := base
		if i < extra {
			sc++
		}
		c.shards[i].init(sc)
	}
	return c
}

func (c *shardedCache) shardFor(k freqKey) *cacheShard {
	return &c.shards[k.hash()&c.mask]
}

func (c *shardedCache) get(k freqKey) ([]byte, bool) {
	return c.lookup(k, true)
}

func (c *shardedCache) peek(k freqKey) ([]byte, bool) {
	return c.lookup(k, false)
}

func (c *shardedCache) lookup(k freqKey, countMiss bool) ([]byte, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	i, ok := s.index[k]
	if !ok {
		if countMiss {
			s.misses++
		}
		s.mu.Unlock()
		return nil, false
	}
	s.hits++
	e := &s.slots[i]
	e.touched = true
	e.hits++
	b := s.packed(e)
	s.mu.Unlock()
	return b, true
}

// packed returns e's bytes, capped so no append through them can reach
// bytes the shard owns. Caller holds the shard lock.
func (s *cacheShard) packed(e *slot) []byte {
	return s.arena[e.off : e.off+e.n : e.off+e.n]
}

func (c *shardedCache) put(k freqKey, f poi.FreqVector) []byte {
	s := c.shardFor(k)
	s.mu.Lock()
	off := len(s.arena)
	s.arena = appendPacked(s.arena, f)
	n := len(s.arena) - off
	if i, ok := s.index[k]; ok {
		// A concurrent miss on the same key beat us here; refresh the
		// value and recency, keep the size unchanged.
		e := &s.slots[i]
		s.live += n - e.n
		e.off, e.n = off, n
		e.touched = true
	} else {
		i := s.alloc()
		s.slots[i] = slot{key: k, off: off, n: n}
		s.enqueue(i)
		s.index[k] = i
		s.live += n
		if len(s.index) > s.cap {
			s.evictOne()
		}
	}
	b := s.arena[off : off+n : off+n]
	if len(s.arena)-s.live > s.live {
		s.compact()
	}
	s.mu.Unlock()
	return b
}

// alloc takes a slot off the free list, or grows the slot table when
// none is free. Caller holds the shard lock.
func (s *cacheShard) alloc() int32 {
	if i := s.free; i >= 0 {
		s.free = s.slots[i].next
		return i
	}
	s.slots = append(s.slots, slot{})
	return int32(len(s.slots) - 1)
}

// enqueue appends slot i to the FIFO tail. Caller holds the shard lock.
func (s *cacheShard) enqueue(i int32) {
	s.slots[i].next = -1
	if s.tail >= 0 {
		s.slots[s.tail].next = i
	} else {
		s.head = i
	}
	s.tail = i
}

// evictOne drops the oldest untouched entry: touched entries popped on
// the way get their bit cleared and a second chance at the tail. The
// scan terminates — after one full pass every bit is clear, so the
// second pass evicts at its first stop. The victim's slot goes on the
// free list and its arena bytes become dead. Caller holds the shard
// lock.
func (s *cacheShard) evictOne() {
	for {
		i := s.head
		e := &s.slots[i]
		s.head = e.next
		if s.head < 0 {
			s.tail = -1
		}
		if !e.touched {
			delete(s.index, e.key)
			s.live -= e.n
			s.evictions++
			e.next = s.free
			s.free = i
			return
		}
		e.touched = false
		s.enqueue(i)
	}
}

// compact copies the live entries' bytes into a fresh arena. put calls
// it once dead bytes outnumber live ones, so the arena stays within
// about twice the live bytes and each byte written is copied a bounded
// number of times. The old arena is dropped, never reused, so slices
// handed out before the compaction keep reading intact bytes. Caller
// holds the shard lock.
func (s *cacheShard) compact() {
	arena := make([]byte, 0, 2*s.live)
	for i := s.head; i >= 0; i = s.slots[i].next {
		e := &s.slots[i]
		off := len(arena)
		arena = append(arena, s.arena[e.off:e.off+e.n]...)
		e.off = off
	}
	s.arena = arena
}

func (c *shardedCache) hottest(n int) []hotEntry {
	if n <= 0 {
		return nil
	}
	var out []hotEntry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for j := s.head; j >= 0; j = s.slots[j].next {
			e := &s.slots[j]
			out = append(out, hotEntry{key: e.key, val: s.packed(e), hits: e.hits})
		}
		s.mu.Unlock()
	}
	// Hottest first; ties broken by key so the order — and therefore the
	// snapshot bytes — is deterministic for a given cache state.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.hits != b.hits {
			return a.hits > b.hits
		}
		if a.key.x != b.key.x {
			return a.key.x < b.key.x
		}
		if a.key.y != b.key.y {
			return a.key.y < b.key.y
		}
		return a.key.r < b.key.r
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func (c *shardedCache) metrics() CacheMetrics {
	m := CacheMetrics{Shards: len(c.shards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		m.Hits += s.hits
		m.Misses += s.misses
		m.Evictions += s.evictions
		m.Size += len(s.index)
		m.Capacity += s.cap
		s.mu.Unlock()
	}
	return m
}

// singleLockCache is the pre-sharding design — one mutex around one map,
// overflow handled by wiping everything. Kept only as the ablation
// baseline for BenchmarkFreqCacheSharded; the Service never uses it.
type singleLockCache struct {
	mu      sync.Mutex
	entries map[freqKey][]byte
	cap     int

	hits, misses, evictions uint64
}

func newSingleLockCache(capacity int) *singleLockCache {
	return &singleLockCache{
		entries: make(map[freqKey][]byte, min(capacity, 4096)),
		cap:     capacity,
	}
}

func (c *singleLockCache) get(k freqKey) ([]byte, bool) {
	c.mu.Lock()
	b, ok := c.entries[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return b, ok
}

func (c *singleLockCache) peek(k freqKey) ([]byte, bool) {
	c.mu.Lock()
	b, ok := c.entries[k]
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	return b, ok
}

func (c *singleLockCache) put(k freqKey, f poi.FreqVector) []byte {
	b := appendPacked(nil, f)
	c.mu.Lock()
	if len(c.entries) >= c.cap {
		c.evictions += uint64(len(c.entries))
		clear(c.entries)
	}
	c.entries[k] = b
	c.mu.Unlock()
	return b
}

func (c *singleLockCache) hottest(n int) []hotEntry {
	// The ablation baseline tracks no per-entry hits; return entries in
	// key order so the result is at least deterministic.
	c.mu.Lock()
	out := make([]hotEntry, 0, len(c.entries))
	for k, v := range c.entries {
		out = append(out, hotEntry{key: k, val: v})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].key, out[j].key
		if a.x != b.x {
			return a.x < b.x
		}
		if a.y != b.y {
			return a.y < b.y
		}
		return a.r < b.r
	})
	if n >= 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

func (c *singleLockCache) metrics() CacheMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheMetrics{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      len(c.entries),
		Capacity:  c.cap,
		Shards:    1,
	}
}
