package gsp

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"

	"poiagg/internal/hash64"
	"poiagg/internal/obs"
	"poiagg/internal/poi"
)

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
	// Hits and Misses count lookups: every Freq call is exactly one of
	// the two.
	Hits, Misses uint64
	// Evictions counts entries dropped by the LRU policy — individual
	// entries, not whole-cache wipes.
	Evictions uint64
	// Size is the number of live entries; Capacity the configured bound.
	Size, Capacity int
	// Shards is the number of lock shards.
	Shards int
}

// Cache metric names registered by Service.ExportMetrics.
const (
	MetricCacheHits      = "gsp.cache.hits"
	MetricCacheMisses    = "gsp.cache.misses"
	MetricCacheEvictions = "gsp.cache.evictions"
	MetricCacheSize      = "gsp.cache.size"
)

// ExportMetrics publishes the cache's hit/miss/eviction/size counters
// and the singleflight leader/shared/hits counters into reg, sampled
// lazily at snapshot time so the Freq hot path pays nothing for the
// export. No-op when caching is disabled.
func (s *Service) ExportMetrics(reg *obs.Registry) {
	if s.cache == nil || reg == nil {
		return
	}
	reg.CounterFunc(MetricCacheHits, func() uint64 { return s.CacheMetrics().Hits })
	reg.CounterFunc(MetricCacheMisses, func() uint64 { return s.CacheMetrics().Misses })
	reg.CounterFunc(MetricCacheEvictions, func() uint64 { return s.CacheMetrics().Evictions })
	reg.CounterFunc(MetricCacheSize, func() uint64 { return uint64(s.CacheMetrics().Size) })
	reg.CounterFunc(MetricSFLeader, func() uint64 { return s.SingleflightMetrics().Leader })
	reg.CounterFunc(MetricSFShared, func() uint64 { return s.SingleflightMetrics().Shared })
	reg.CounterFunc(MetricSFHits, func() uint64 { return s.SingleflightMetrics().Hits })
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
}

// cacheShard is one lock domain of the sharded cache. No per-entry
// state holds a pointer: the index maps pointer-free keys to int32 slot
// numbers, slots link by number, and every packed vector lives in one
// []byte arena. The runtime allocates all three as no-scan memory, so a
// GC cycle marks the slot table, the arena and the map's tables (one
// per up to 1,024 entries) instead of two objects per entry.
//
// The same lock covers the shard's in-flight calls (singleflight.go),
// so a lookup that misses joins the key's call or registers a new one
// in the step that counted the miss.
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
	// a slice returned by lookup stays valid and unchanged after the
	// lock is released.
	arena []byte
	live  int // arena bytes that live slots refer to
	cap   int
	// calls maps each key being computed to its call. It is the shard's
	// only pointerful state, and holds one entry per computing leader.
	calls map[freqKey]*sfCall

	hits, misses, evictions uint64
	leaders, joins, shared  uint64
}

func (s *cacheShard) init(capacity int) {
	s.cap = capacity
	s.index = make(map[freqKey]int32, min(capacity, 1024))
	s.head, s.tail, s.free = -1, -1, -1
	s.calls = make(map[freqKey]*sfCall)
}

// shardedCache is the Service's Freq cache: power-of-two lock shards
// selected by hashed key, per-shard second-chance (CLOCK) eviction —
// the classic one-bit LRU approximation. A hit only sets the entry's
// touched bit, so the hit critical section is exactly a map lookup (no
// recency-list surgery), and eviction is true per-entry: the oldest
// untouched entry goes, recently used entries are spared. Concurrent
// sweeps therefore contend only when their keys collide on a shard, and
// a full cache sheds cold entries instead of wiping the hot working set
// (the pre-sharding design's clear-all degraded to a 0% hit rate
// mid-sweep every time it filled).
//
// Vectors are held packed (appendPacked). The cache never retains a
// caller's vector, and never rewrites bytes it has handed out, so
// callers unpack them (unpackFreq) without holding any lock, and must
// not modify them.
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

// lookup is one Freq lookup, made under the shard lock. A hit returns
// k's packed bytes and a nil call. A miss returns the call computing k:
// with lead false when another goroutine already computes k, so the
// caller joins it; otherwise lookup registers a new call and returns it
// with lead true, and the caller must compute k and end the call with
// fill. Every lookup counts exactly one hit or one miss, and every miss
// exactly one leader or one join.
func (s *cacheShard) lookup(k freqKey) (b []byte, c *sfCall, lead bool) {
	s.mu.Lock()
	if i, ok := s.index[k]; ok {
		s.hits++
		e := &s.slots[i]
		e.touched = true
		b = s.packed(e)
		s.mu.Unlock()
		return b, nil, false
	}
	s.misses++
	if c = s.calls[k]; c != nil {
		s.joins++
		c.joiners++
		s.mu.Unlock()
		return nil, c, false
	}
	s.leaders++
	c = &sfCall{}
	c.wg.Add(1)
	s.calls[k] = c
	s.mu.Unlock()
	return nil, c, true
}

// fill ends leader call c in one locked step: it packs f into the
// shard, gives the stored bytes to c and unregisters c, so a lookup
// finds either k's call or its entry. A nil f — the leader panicked —
// unregisters c with ok false, and its joiners compute for themselves.
func (s *cacheShard) fill(k freqKey, c *sfCall, f poi.FreqVector) {
	s.mu.Lock()
	if f != nil {
		c.val, c.ok = s.store(k, f), true
		s.shared += c.joiners
	}
	delete(s.calls, k)
	s.mu.Unlock()
	c.wg.Done()
}

// packed returns e's bytes, capped so no append through them can reach
// bytes the shard owns. Caller holds the shard lock.
func (s *cacheShard) packed(e *slot) []byte {
	return s.arena[e.off : e.off+e.n : e.off+e.n]
}

// put packs f into the cache under k outside any call: a joiner whose
// leader panicked stores its own compute with it.
func (c *shardedCache) put(k freqKey, f poi.FreqVector) []byte {
	s := c.shardFor(k)
	s.mu.Lock()
	b := s.store(k, f)
	s.mu.Unlock()
	return b
}

// store packs f into the arena under k and returns the stored bytes.
// Caller holds the shard lock.
func (s *cacheShard) store(k freqKey, f poi.FreqVector) []byte {
	off := len(s.arena)
	s.arena = appendPacked(s.arena, f)
	n := len(s.arena) - off
	if i, ok := s.index[k]; ok {
		// A put over a live entry — another joiner of the same panicked
		// leader, or the key's next leader, stored it first: refresh the
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

// compact copies the live entries' bytes into a fresh arena. store
// calls it once dead bytes outnumber live ones, so the arena stays
// within about twice the live bytes and each byte written is copied a
// bounded number of times. The old arena is dropped, never reused, so slices
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

func (c *shardedCache) metrics() (CacheMetrics, SingleflightMetrics) {
	m := CacheMetrics{Shards: len(c.shards)}
	var sf SingleflightMetrics
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		m.Hits += s.hits
		m.Misses += s.misses
		m.Evictions += s.evictions
		m.Size += len(s.index)
		m.Capacity += s.cap
		sf.Leader += s.leaders
		sf.Hits += s.joins
		sf.Shared += s.shared
		s.mu.Unlock()
	}
	return m, sf
}
