// Package obs provides dependency-free observability primitives for the
// wire stack: atomic counters and gauges, a fixed-bucket latency
// histogram with quantile estimation, and a registry that aggregates
// per-route HTTP statistics. Everything is lock-cheap — the hot path
// (one request) touches only atomics — so the instrumented handlers stay
// safe and fast under the concurrency the ROADMAP targets.
//
// The registry serializes to a stable JSON Snapshot served at
// /v1/metrics (see middleware.go), which is also what the end-to-end
// tests assert against.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is an atomic up/down gauge (e.g. in-flight requests).
type Gauge struct {
	n atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.n.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.n.Add(-1) }

// Set overwrites the value.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// histBuckets is the number of geometric latency buckets. Bucket i
// covers durations below histBase<<i; the last bucket is the overflow.
const histBuckets = 24

// histBase is the upper bound of the first bucket. 50µs doubling over 24
// buckets spans 50µs .. ~7 min, comfortably covering an HTTP handler.
const histBase = 50 * time.Microsecond

// Histogram records durations into fixed geometric buckets. All methods
// are safe for concurrent use; Observe is a few atomic adds.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Int64 // total nanoseconds
	count  atomic.Uint64
	max    atomic.Int64 // nanoseconds
}

// bucketFor returns the bucket index for d.
func bucketFor(d time.Duration) int {
	bound := histBase
	for i := 0; i < histBuckets-1; i++ {
		if d < bound {
			return i
		}
		bound <<= 1
	}
	return histBuckets - 1
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketFor(d)].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the mean observed duration.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Max returns the largest observed duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket containing the target rank, clamped to the observed
// maximum. The estimate is bounded by the true bucket edges, so it is
// never off by more than one bucket width (a factor of two at these
// geometric bounds).
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	observedMax := time.Duration(h.max.Load())
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	lo := time.Duration(0)
	hi := histBase
	for i := 0; i < histBuckets; i++ {
		n := float64(h.counts[i].Load())
		if cum+n >= rank && n > 0 {
			if i == histBuckets-1 {
				// Overflow bucket: clamp to the observed max.
				return observedMax
			}
			frac := (rank - cum) / n
			return min(lo+time.Duration(frac*float64(hi-lo)), observedMax)
		}
		cum += n
		lo = hi
		hi <<= 1
	}
	return time.Duration(h.max.Load())
}

// RouteStats aggregates one HTTP route's metrics.
type RouteStats struct {
	InFlight Gauge
	Latency  Histogram
	// byClass counts responses by status class; index status/100 (1..5).
	byClass [6]Counter
}

// ObserveRequest records one completed request.
func (rs *RouteStats) ObserveRequest(status int, d time.Duration) {
	class := status / 100
	if class < 1 || class > 5 {
		class = 5
	}
	rs.byClass[class].Inc()
	rs.Latency.Observe(d)
}

// Requests returns the total completed requests on the route.
func (rs *RouteStats) Requests() uint64 {
	var n uint64
	for i := 1; i < len(rs.byClass); i++ {
		n += rs.byClass[i].Value()
	}
	return n
}

// maxRoutes caps the per-route map so hostile paths cannot grow the
// registry without bound; overflow routes aggregate under RouteOther.
const maxRoutes = 64

// RouteOther aggregates requests that match no route pattern (see
// Instrument) and routes beyond the maxRoutes cap.
const RouteOther = "other"

// Registry holds a process's metrics: per-route HTTP statistics plus
// free-form named counters (client retries, cache hits, ...). The zero
// value is not usable; call NewRegistry.
type Registry struct {
	start time.Time

	mu        sync.RWMutex
	routes    map[string]*RouteStats
	counters  map[string]*Counter
	funcs     map[string]func() uint64
	latencies map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:     time.Now(),
		routes:    make(map[string]*RouteStats),
		counters:  make(map[string]*Counter),
		funcs:     make(map[string]func() uint64),
		latencies: make(map[string]*Histogram),
	}
}

// Route returns the stats for a route key (conventionally "METHOD /path"),
// creating it on first use. Keys beyond the cap share the RouteOther
// bucket.
func (r *Registry) Route(key string) *RouteStats {
	r.mu.RLock()
	rs, ok := r.routes[key]
	r.mu.RUnlock()
	if ok {
		return rs
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if rs, ok = r.routes[key]; ok {
		return rs
	}
	if len(r.routes) >= maxRoutes {
		if rs, ok = r.routes[RouteOther]; ok {
			return rs
		}
		key = RouteOther
	}
	rs = &RouteStats{}
	r.routes[key] = rs
	return rs
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// CounterFunc registers a named counter whose value is pulled from fn at
// Snapshot time — the export path for subsystems that already keep their
// own atomic or lock-guarded bookkeeping (e.g. the GSP freq cache) and
// should not pay a second counter update on their hot path. fn must be
// safe for concurrent use. Registering a name again replaces the
// function; a pulled name shadows any pushed Counter of the same name in
// the snapshot.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// RegisterLatency publishes a named non-route latency histogram (e.g. a
// subsystem's internal decision latency) so it appears in the Snapshot's
// latencies section alongside the per-route summaries. The histogram
// stays owned by the caller, which keeps observing on its own hot path;
// registering a name again replaces the histogram.
func (r *Registry) RegisterLatency(name string, h *Histogram) {
	if h == nil {
		return
	}
	r.mu.Lock()
	r.latencies[name] = h
	r.mu.Unlock()
}

// Latency returns the named registered histogram, or nil.
func (r *Registry) Latency(name string) *Histogram {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.latencies[name]
}

// LatencySnapshot summarizes a histogram in milliseconds.
type LatencySnapshot struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MaxMs  float64 `json:"maxMs"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// SnapshotLatency summarizes h.
func SnapshotLatency(h *Histogram) LatencySnapshot {
	return LatencySnapshot{
		Count:  h.Count(),
		MeanMs: ms(h.Mean()),
		P50Ms:  ms(h.Quantile(0.50)),
		P90Ms:  ms(h.Quantile(0.90)),
		P95Ms:  ms(h.Quantile(0.95)),
		P99Ms:  ms(h.Quantile(0.99)),
		MaxMs:  ms(h.Max()),
	}
}

// RouteSnapshot is the JSON view of one route's statistics.
type RouteSnapshot struct {
	Requests uint64            `json:"requests"`
	InFlight int64             `json:"inFlight"`
	Status   map[string]uint64 `json:"status"`
	Latency  LatencySnapshot   `json:"latency"`
}

// Snapshot is the JSON document served at /v1/metrics.
type Snapshot struct {
	UptimeSeconds float64                    `json:"uptimeSeconds"`
	Routes        map[string]RouteSnapshot   `json:"routes"`
	Counters      map[string]uint64          `json:"counters,omitempty"`
	Latencies     map[string]LatencySnapshot `json:"latencies,omitempty"`
}

// Snapshot materializes the current state. Values are read without a
// global pause, so counts across metrics may be off by in-flight
// requests — fine for monitoring, and the tests quiesce first.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Routes:        make(map[string]RouteSnapshot, len(r.routes)),
	}
	for key, rs := range r.routes {
		status := make(map[string]uint64)
		for c := 1; c <= 5; c++ {
			if n := rs.byClass[c].Value(); n > 0 {
				status[statusClassName(c)] = n
			}
		}
		snap.Routes[key] = RouteSnapshot{
			Requests: rs.Requests(),
			InFlight: rs.InFlight.Value(),
			Status:   status,
			Latency:  SnapshotLatency(&rs.Latency),
		}
	}
	if len(r.counters)+len(r.funcs) > 0 {
		snap.Counters = make(map[string]uint64, len(r.counters)+len(r.funcs))
		for name, c := range r.counters {
			snap.Counters[name] = c.Value()
		}
		for name, fn := range r.funcs {
			snap.Counters[name] = fn()
		}
	}
	if len(r.latencies) > 0 {
		snap.Latencies = make(map[string]LatencySnapshot, len(r.latencies))
		for name, h := range r.latencies {
			snap.Latencies[name] = SnapshotLatency(h)
		}
	}
	return snap
}

func statusClassName(c int) string {
	return string(rune('0'+c)) + "xx"
}

// Totals sums requests, 5xx responses, and in-flight requests across all
// routes, and pools every route's latency observations into one summary —
// the one-line overview the periodic log emits.
func (r *Registry) Totals() (requests, errors5xx uint64, inFlight int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, rs := range r.routes {
		requests += rs.Requests()
		errors5xx += rs.byClass[5].Value()
		inFlight += rs.InFlight.Value()
	}
	return requests, errors5xx, inFlight
}
