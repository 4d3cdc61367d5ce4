package gsp

// Singleflight miss coalescing for the Freq cache. Under duplicate-heavy
// traffic — thousands of concurrent clients probing the same hot
// (location, radius) keys — a cache miss used to fan out into one
// CountTypes computation *per concurrent requester*: every goroutine that
// missed between the first miss and its cache fill recomputed the same
// vector. The inflight table collapses that: exactly one goroutine (the
// leader) computes a missing key while concurrent duplicates (joiners)
// block on the call and copy the leader's result out when it lands.
//
// The table is sharded like the freq cache, so leaders registering and
// joiners subscribing contend only when their keys collide on a shard.
// Lock order is inflight shard → cache shard (the leader re-checks the
// cache under the inflight lock); the reverse edge never occurs — no
// cache-lock holder touches the inflight table.
//
// The cache's contract is preserved: the leader computes into its
// caller's buffer, packs it once into the cache, and publishes the
// packed bytes the cache stored to joiners, each of which unpacks them
// into its own buffer. Nobody ever hands out a shared mutable slice.
//
// A leader that panics (a poisoned index, a bug) must not poison its
// joiners: the call is unregistered and completed by a defer with its ok
// flag still false, and each joiner falls back to computing the key
// itself. The panic propagates only to the leader's own caller.

import (
	"sync"
	"sync/atomic"

	"poiagg/internal/geo"
	"poiagg/internal/poi"
)

// Singleflight metric names registered by Service.ExportMetrics.
const (
	MetricSFLeader = "gsp.singleflight.leader"
	MetricSFShared = "gsp.singleflight.shared"
	MetricSFHits   = "gsp.singleflight.hits"
)

// sfCall is one in-flight Freq computation. val and ok are written by
// the leader before done closes and never after, so joiners may read
// them lock-free once done is closed.
type sfCall struct {
	done chan struct{}
	val  []byte // the packed vector installed in the cache; read-only
	ok   bool   // false when the leader panicked before finishing
}

// inflight is the per-key duplicate-miss table.
type inflight struct {
	shards []inflightShard
	mask   uint64

	// leader counts misses that computed (one per collapsed group, plus
	// every uncontended miss). hits counts misses that found their key
	// already in flight and joined. shared counts joiners that received
	// the leader's result — hits minus shared is the fallback count
	// after leader panics, normally zero.
	leader atomic.Uint64
	hits   atomic.Uint64
	shared atomic.Uint64
}

type inflightShard struct {
	mu    sync.Mutex
	calls map[freqKey]*sfCall
}

func newInflight() *inflight {
	// Shard purely by parallelism — the table holds only in-flight
	// misses, so capacity never constrains the count.
	n := shardCountFor(1 << 30)
	t := &inflight{shards: make([]inflightShard, n), mask: uint64(n - 1)}
	for i := range t.shards {
		t.shards[i].calls = make(map[freqKey]*sfCall)
	}
	return t
}

// SingleflightMetrics is a point-in-time view of the miss coalescer.
type SingleflightMetrics struct {
	// Leader counts misses that ran CountTypes themselves.
	Leader uint64
	// Hits counts misses that joined an already-in-flight computation.
	Hits uint64
	// Shared counts joiners that received the leader's result; it lags
	// Hits only when a leader panicked and its joiners fell back.
	Shared uint64
}

// SingleflightMetrics returns the coalescer's counters; the zero value
// when singleflight is disabled.
func (s *Service) SingleflightMetrics() SingleflightMetrics {
	sf := s.sf
	if sf == nil {
		return SingleflightMetrics{}
	}
	return SingleflightMetrics{
		Leader: sf.leader.Load(),
		Hits:   sf.hits.Load(),
		Shared: sf.shared.Load(),
	}
}

// SetSingleflight enables or disables miss coalescing (enabled by
// default whenever caching is on). It exists for the ablation benchmarks
// and loadgen's singleflight-off comparison runs, and must not be called
// concurrently with queries. A no-op when caching is disabled —
// coalescing without a cache to fill would leave joiners nothing to
// share.
func (s *Service) SetSingleflight(on bool) {
	if !on || s.cache == nil {
		s.sf = nil
		return
	}
	if s.sf == nil {
		s.sf = newInflight()
	}
}

// computeInto fills out with a fresh CountTypes result, packs it into
// the cache, and returns the packed bytes the cache stored.
func (s *Service) computeInto(out poi.FreqVector, key freqKey, l geo.Point, r float64) []byte {
	clear(out)
	s.city.idx.CountTypes(out, l, r)
	return s.cache.put(key, out)
}

// freqMiss resolves a cache miss, collapsing concurrent duplicates onto
// one computation when singleflight is enabled.
func (s *Service) freqMiss(out poi.FreqVector, key freqKey, l geo.Point, r float64) {
	sf := s.sf
	if sf == nil {
		s.computeInto(out, key, l, r)
		return
	}
	sh := &sf.shards[key.hash()&sf.mask]
	sh.mu.Lock()
	if c, ok := sh.calls[key]; ok {
		sh.mu.Unlock()
		sf.hits.Add(1)
		<-c.done
		if c.ok {
			sf.shared.Add(1)
			unpackFreq(out, c.val)
			return
		}
		// The leader panicked; its panic is not ours to re-raise (our
		// own compute may well succeed), so fall back to computing
		// independently.
		s.computeInto(out, key, l, r)
		return
	}
	// Re-check the cache before becoming leader: a previous leader may
	// have filled the key between our miss and taking the shard lock
	// (put happens before the call is unregistered, so if the call is
	// gone the value is visible). Without this, that window would admit
	// a second compute of the same key.
	if b, ok := s.cache.peek(key); ok {
		sh.mu.Unlock()
		unpackFreq(out, b)
		return
	}
	c := &sfCall{done: make(chan struct{})}
	sh.calls[key] = c
	sh.mu.Unlock()
	sf.leader.Add(1)
	defer func() {
		sh.mu.Lock()
		delete(sh.calls, key)
		sh.mu.Unlock()
		close(c.done)
	}()
	c.val = s.computeInto(out, key, l, r)
	c.ok = true
}
