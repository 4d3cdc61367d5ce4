package obs

import (
	"context"
	"encoding/json"
	"log"
	"net/http"
	"time"
)

// Operational endpoints added by Instrument.
const (
	// PathMetrics serves the registry Snapshot as JSON.
	PathMetrics = "/v1/metrics"
	// PathHealthz reports liveness: 200 as long as the process serves.
	PathHealthz = "/healthz"
	// PathReadyz reports readiness via the configured check.
	PathReadyz = "/readyz"
)

// Option customizes Instrument.
type Option func(*instrumented)

// WithReadyCheck sets the readiness probe; a nil check (the default)
// reports ready. A non-nil error yields 503 with the error text.
func WithReadyCheck(check func() error) Option {
	return func(h *instrumented) { h.ready = check }
}

// WithRequestHook registers a callback invoked after every proxied
// request (not for the operational endpoints themselves) — the servers
// use it for their per-request log line.
func WithRequestHook(hook func(r *http.Request, status int, d time.Duration)) Option {
	return func(h *instrumented) { h.hook = hook }
}

// Instrument wraps next with per-route metrics (request count by status
// class, in-flight gauge, latency histogram) and mounts the operational
// endpoints /v1/metrics, /healthz, and /readyz. next is mux behind any
// middleware. Routes are keyed on the pattern mux matches for the
// request (ServeMux.Handler), such as "GET /v1/freq" or
// "GET /v1/budget/{principal}", and requests that match no pattern
// (404, 405) share RouteOther: the route table is bounded by the
// registered patterns, and no name a client puts in a path reaches
// /v1/metrics. Requests to the operational endpoints are answered
// directly and are not recorded, so route counts reflect application
// traffic only.
func Instrument(reg *Registry, mux *http.ServeMux, next http.Handler, opts ...Option) http.Handler {
	h := &instrumented{reg: reg, mux: mux, next: next}
	for _, opt := range opts {
		opt(h)
	}
	return h
}

type instrumented struct {
	reg   *Registry
	mux   *http.ServeMux
	next  http.Handler
	ready func() error
	hook  func(r *http.Request, status int, d time.Duration)
}

func (h *instrumented) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case PathMetrics:
		h.serveMetrics(w, r)
		return
	case PathHealthz:
		writeStatus(w, http.StatusOK, "ok")
		return
	case PathReadyz:
		if h.ready != nil {
			if err := h.ready(); err != nil {
				writeStatus(w, http.StatusServiceUnavailable, err.Error())
				return
			}
		}
		writeStatus(w, http.StatusOK, "ready")
		return
	}

	route := h.reg.Route(h.routeKey(r))
	route.InFlight.Inc()
	start := time.Now()
	sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r)
	d := time.Since(start)
	route.InFlight.Dec()
	route.ObserveRequest(sw.status, d)
	if h.hook != nil {
		h.hook(r, sw.status, d)
	}
}

// routeKey is the mux pattern r matches, or RouteOther. For a request
// the mux redirects to add a trailing slash, ServeMux.Handler reports
// the redirect target, which is a registered subtree pattern whenever
// those patterns hold no wildcards (as /debug/pprof/ does not).
func (h *instrumented) routeKey(r *http.Request) string {
	if _, pattern := h.mux.Handler(r); pattern != "" {
		return pattern
	}
	return RouteOther
}

func (h *instrumented) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeStatus(w, http.StatusMethodNotAllowed, "metrics is GET-only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(h.reg.Snapshot()); err != nil {
		log.Printf("obs: encode metrics: %v", err)
	}
}

// writeStatus emits the tiny JSON envelope the operational endpoints use.
func writeStatus(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"status": msg})
}

// statusRecorder captures the response status for the metrics layer.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it supports streaming.
func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// StartSummary launches a goroutine that logs a one-line traffic summary
// every interval until ctx is cancelled: total requests, 5xx count,
// in-flight requests, and pooled latency quantiles. Intervals with no
// traffic since the previous line are skipped to keep idle logs quiet.
func StartSummary(ctx context.Context, logger *log.Logger, reg *Registry, interval time.Duration) {
	if logger == nil || interval <= 0 {
		return
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		var lastReqs uint64
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				reqs, errs, inflight := reg.Totals()
				if reqs == lastReqs {
					continue
				}
				lastReqs = reqs
				p50, p99 := pooledQuantiles(reg)
				logger.Printf("stats: %d requests (%d 5xx, %d in flight) p50=%s p99=%s",
					reqs, errs, inflight, p50.Round(time.Microsecond), p99.Round(time.Microsecond))
			}
		}
	}()
}

// pooledQuantiles merges every route's histogram buckets and reports the
// pooled p50/p99 — an overview, not a per-route SLO.
func pooledQuantiles(reg *Registry) (p50, p99 time.Duration) {
	var pooled Histogram
	reg.mu.RLock()
	for _, rs := range reg.routes {
		for i := range rs.Latency.counts {
			pooled.counts[i].Add(rs.Latency.counts[i].Load())
		}
		pooled.count.Add(rs.Latency.count.Load())
		pooled.sum.Add(rs.Latency.sum.Load())
		if m := rs.Latency.max.Load(); m > pooled.max.Load() {
			pooled.max.Store(m)
		}
	}
	reg.mu.RUnlock()
	return pooled.Quantile(0.50), pooled.Quantile(0.99)
}
