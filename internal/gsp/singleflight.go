package gsp

// Singleflight miss coalescing for the Freq cache. Under duplicate-heavy
// traffic — thousands of concurrent clients probing the same hot
// (location, radius) keys — a cache miss used to fan out into one
// CountTypes computation *per concurrent requester*: every goroutine that
// missed between the first miss and its cache fill recomputed the same
// vector. Coalescing collapses that: exactly one goroutine (the leader)
// computes a missing key while concurrent duplicates (joiners) wait on
// its call and copy the leader's result out when it lands.
//
// The calls live in the cache shards (cache.go), under the lock that
// guards the entries: one locked lookup finds the key's entry, or its
// call to join, or registers a new call whose leader is the caller. The
// leader computes outside the lock, and one locked fill stores the
// vector and unregisters the call, so no window admits a second compute
// of the key.
//
// The cache's contract is preserved: the leader computes into its
// caller's buffer, packs it once into the cache, and publishes the
// packed bytes the cache stored to joiners, each of which unpacks them
// into its own buffer. Nobody ever hands out a shared mutable slice.
//
// A leader that panics (a poisoned index, a bug) must not poison its
// joiners: a deferred fill unregisters the call with its ok flag still
// false, and each joiner falls back to computing the key itself. The
// panic propagates only to the leader's own caller.

import (
	"sync"

	"poiagg/internal/geo"
	"poiagg/internal/poi"
)

// Singleflight metric names registered by Service.ExportMetrics.
const (
	MetricSFLeader = "gsp.singleflight.leader"
	MetricSFShared = "gsp.singleflight.shared"
	MetricSFHits   = "gsp.singleflight.hits"
)

// sfCall is one in-flight Freq computation. joiners is guarded by its
// shard's lock. val and ok are written by fill before wg is released
// and never after, so joiners may read them lock-free once Wait returns.
type sfCall struct {
	wg      sync.WaitGroup
	joiners uint64
	val     []byte // the packed vector installed in the cache; read-only
	ok      bool   // false when the leader panicked before finishing
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
// when caching is disabled.
func (s *Service) SingleflightMetrics() SingleflightMetrics {
	if s.cache == nil {
		return SingleflightMetrics{}
	}
	_, sf := s.cache.metrics()
	return sf
}

// lead computes k into out as the leader of call c and ends the call
// with fill, also when CountTypes panics.
func (s *Service) lead(sh *cacheShard, c *sfCall, out poi.FreqVector, k freqKey, l geo.Point, r float64) {
	var f poi.FreqVector // stays nil if CountTypes panics
	defer func() { sh.fill(k, c, f) }()
	clear(out)
	s.city.idx.CountTypes(out, l, r)
	f = out
}

// join waits for call c's leader and unpacks its result into out. A
// leader's panic is not ours to re-raise (our own compute may well
// succeed), so when the leader panicked join computes k itself.
func (s *Service) join(c *sfCall, out poi.FreqVector, k freqKey, l geo.Point, r float64) {
	c.wg.Wait()
	if c.ok {
		unpackFreq(out, c.val)
		return
	}
	clear(out)
	s.city.idx.CountTypes(out, l, r)
	s.cache.put(k, out)
}
