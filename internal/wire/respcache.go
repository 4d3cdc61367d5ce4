package wire

// Zero-copy response writing for the GSP read endpoints. A hot /v1/freq
// key used to pay the full encode pipeline on every hit — cache lookup,
// vector clone, reflection-driven JSON encoding, buffer allocation — even
// though the bytes on the wire were identical each time. The encoded
// cache memoizes those bytes: single-query hits replay one stored []byte
// straight into the ResponseWriter, and the batch endpoints assemble
// their response from pre-encoded per-item segments, so a batch of hot
// items costs a handful of memcpys instead of a reflect walk over every
// vector.
//
// Byte identity is the contract that makes this safe: writeJSON streams
// through json.NewEncoder(w).Encode(v), which produces exactly
// json.Marshal(v) plus a trailing '\n' (both HTML-escape by default), so
// encodeJSON caches precisely the bytes the live encoder would emit, and
// a batch body assembled as {"results":[seg,",",seg...]}\n from
// per-item json.Marshal segments is exactly the marshaling of the full
// response struct. TestEncodedResponsesByteIdentical holds the two paths
// against each other, and the PR 7 cluster differential e2e (which
// hashes whole response bodies across single-node and sharded-gateway
// deployments) keeps guarding it from the outside.
//
// Entries are keyed by (endpoint kind, x, y, r) — the same key space as
// the gsp freq cache plus a kind tag so a /v1/freq body and a batch item
// segment for the same probe never collide. Eviction is per-shard
// second-chance, mirroring the gsp cache's policy. Cached slices are
// append-only after publication: get returns the stored slice and every
// consumer only copies it outward.

import (
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"sync"

	"poiagg/internal/hash64"
	"poiagg/internal/obs"
)

// Encoded-cache metric names registered by NewGSPServer.
const (
	MetricEncHits      = "enc.cache.hits"
	MetricEncMisses    = "enc.cache.misses"
	MetricEncEvictions = "enc.cache.evictions"
	MetricEncSize      = "enc.cache.size"
)

// DefaultEncodedCache is the encoded-response cache capacity (entries)
// unless WithEncodedCache overrides it.
const DefaultEncodedCache = 4096

// WithEncodedCache sets the encoded-response cache capacity in entries;
// n <= 0 disables the cache and every response goes through the live
// JSON encoder (the ablation baseline the differential test compares
// against). Default DefaultEncodedCache. Only the GSP server reads it.
func WithEncodedCache(n int) ServerOption {
	return func(st *serverSettings) { st.encCap = n }
}

// encKind tags which endpoint a cached encoding belongs to.
type encKind uint8

const (
	encFreq      encKind = iota + 1 // full /v1/freq body
	encFreqItem                     // one /v1/freq/batch result segment
	encQueryItem                    // one /v1/query/batch result segment
)

// encKey identifies one cached encoding.
type encKey struct {
	kind    encKind
	x, y, r float64
}

// hash mixes the key through the splitmix64 finalizer (same construction
// as the gsp freq cache) with the kind folded into the seed.
func (k encKey) hash() uint64 {
	h := hash64.Mix(math.Float64bits(k.x) ^ (0x9e3779b97f4a7c15 + uint64(k.kind)))
	h = hash64.Mix(h ^ math.Float64bits(k.y))
	return hash64.Mix(h ^ math.Float64bits(k.r))
}

// encEntry is one cached encoding on its shard's second-chance queue.
type encEntry struct {
	key     encKey
	body    []byte
	next    *encEntry
	touched bool
}

type encShard struct {
	mu      sync.Mutex
	entries map[encKey]*encEntry
	head    *encEntry // oldest
	tail    *encEntry // newest
	cap     int

	hits, misses, evictions uint64
}

// encCache is a sharded second-chance cache of encoded response bytes.
type encCache struct {
	shards []encShard
	mask   uint64
}

func newEncCache(capacity int) *encCache {
	n := 1
	for n < 2*runtime.GOMAXPROCS(0) && n < 128 {
		n <<= 1
	}
	for n > capacity && n > 1 {
		n >>= 1
	}
	c := &encCache{shards: make([]encShard, n), mask: uint64(n - 1)}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		sc := base
		if i < extra {
			sc++
		}
		c.shards[i].cap = sc
		c.shards[i].entries = make(map[encKey]*encEntry, min(sc, 1024))
	}
	return c
}

func (c *encCache) get(k encKey) ([]byte, bool) {
	s := &c.shards[k.hash()&c.mask]
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.hits++
	e.touched = true
	b := e.body
	s.mu.Unlock()
	return b, true
}

func (c *encCache) put(k encKey, body []byte) {
	s := &c.shards[k.hash()&c.mask]
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		e.body = body
		e.touched = true
		s.mu.Unlock()
		return
	}
	e := &encEntry{key: k, body: body}
	s.enqueue(e)
	s.entries[k] = e
	if len(s.entries) > s.cap {
		s.evictOne()
	}
	s.mu.Unlock()
}

// enqueue appends e to the FIFO tail. Caller holds the shard lock.
func (s *encShard) enqueue(e *encEntry) {
	e.next = nil
	if s.tail != nil {
		s.tail.next = e
	} else {
		s.head = e
	}
	s.tail = e
}

// evictOne drops the oldest untouched entry, giving touched entries a
// second chance at the tail. Caller holds the shard lock.
func (s *encShard) evictOne() {
	for {
		e := s.head
		s.head = e.next
		if s.head == nil {
			s.tail = nil
		}
		if !e.touched {
			delete(s.entries, e.key)
			s.evictions++
			return
		}
		e.touched = false
		s.enqueue(e)
	}
}

// EncCacheMetrics is a point-in-time view of the encoded-response cache.
type EncCacheMetrics struct {
	Hits, Misses, Evictions uint64
	Size                    int
}

func (c *encCache) metrics() EncCacheMetrics {
	var m EncCacheMetrics
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		m.Hits += s.hits
		m.Misses += s.misses
		m.Evictions += s.evictions
		m.Size += len(s.entries)
		s.mu.Unlock()
	}
	return m
}

func (c *encCache) export(reg *obs.Registry) {
	reg.CounterFunc(MetricEncHits, func() uint64 { return c.metrics().Hits })
	reg.CounterFunc(MetricEncMisses, func() uint64 { return c.metrics().Misses })
	reg.CounterFunc(MetricEncEvictions, func() uint64 { return c.metrics().Evictions })
	reg.CounterFunc(MetricEncSize, func() uint64 { return uint64(c.metrics().Size) })
}

// EncodedCacheMetrics returns the encoded-response cache counters; the
// zero value when the cache is disabled.
func (s *GSPServer) EncodedCacheMetrics() EncCacheMetrics {
	if s.enc == nil {
		return EncCacheMetrics{}
	}
	return s.enc.metrics()
}

// encodeJSON marshals v to exactly the bytes writeJSON's stream encoder
// would emit: json.Marshal plus the trailing newline Encoder.Encode
// appends. Both HTML-escape, so the outputs agree byte for byte.
func encodeJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeRaw sends pre-encoded JSON with the same headers writeJSON sets.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeSegments assembles {"results":[seg,seg,...]}\n from pre-encoded
// per-item segments — byte-identical to writeJSON of the full response
// struct, without marshaling any already-cached item again.
func writeSegments(w http.ResponseWriter, segs [][]byte) {
	n := len(`{"results":[]}`) + 1
	for _, seg := range segs {
		n += len(seg) + 1
	}
	buf := make([]byte, 0, n)
	buf = append(buf, `{"results":[`...)
	for i, seg := range segs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, seg...)
	}
	buf = append(buf, "]}\n"...)
	writeRaw(w, http.StatusOK, buf)
}
