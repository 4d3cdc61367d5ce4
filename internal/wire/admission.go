package wire

import (
	"container/list"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poiagg/internal/obs"
)

// Admission metric names exported on the owning server's registry.
const (
	// MetricAdmissionInflight is the admitted weight currently executing.
	MetricAdmissionInflight = "admission.inflight"
	// MetricAdmissionQueued is the number of requests waiting for a slot.
	MetricAdmissionQueued = "admission.queued"
	// MetricAdmissionShed counts requests rejected with 503.
	MetricAdmissionShed = "admission.shed"
)

// AdmissionConfig bounds the concurrent work a server admits. A release
// burst from millions of users (the multi-release workload of the
// paper's trajectory attack) must degrade into fast, explicit 503s —
// never into an OOM or a tail-latency collapse of everything in flight.
type AdmissionConfig struct {
	// Limit is the weight allowed to execute concurrently. Plain
	// requests weigh 1; batch requests weigh their item count (clamped
	// to Limit so a single maximal batch can still be admitted).
	// Limit <= 0 disables admission control entirely.
	Limit int
	// Queue is how many requests may wait for a slot; arrivals beyond
	// it are shed immediately.
	Queue int
	// Timeout caps the queue wait. A request whose own deadline would
	// expire sooner waits only that long (deadline-aware shedding: a
	// reply after the caller gave up is pure waste). Timeout <= 0 means
	// no waiting — at capacity, shed on arrival.
	Timeout time.Duration
}

// AdmissionErrorResponse is the structured body of a 503 shed.
type AdmissionErrorResponse struct {
	Error string `json:"error"`
	// Reason is "queue_full", "timeout", or "deadline".
	Reason string `json:"reason"`
	// RetryAfterSeconds mirrors the Retry-After header.
	RetryAfterSeconds int `json:"retryAfterSeconds"`
}

// shedReason classifies why a request was not admitted.
type shedReason string

const (
	shedQueueFull shedReason = "queue_full"
	shedTimeout   shedReason = "timeout"
	shedDeadline  shedReason = "deadline"
)

// admitWaiter is one queued request. ready is closed (under the
// admission mutex) when the waiter's weight has been granted.
type admitWaiter struct {
	weight int64
	ready  chan struct{}
}

// admission is a weighted concurrency limiter with a bounded FIFO wait
// queue. Grants are strictly first-come-first-served: a small request
// never overtakes a queued batch, so heavy requests cannot be starved.
type admission struct {
	cfg AdmissionConfig

	mu      sync.Mutex
	cur     int64      // admitted weight
	waiters *list.List // of *admitWaiter, front = oldest

	queued   atomic.Int64
	inflight atomic.Int64
	shed     atomic.Uint64
}

func newAdmission(cfg AdmissionConfig) *admission {
	if cfg.Queue < 0 {
		cfg.Queue = 0
	}
	if cfg.Timeout < 0 {
		cfg.Timeout = 0
	}
	return &admission{cfg: cfg, waiters: list.New()}
}

// export publishes the admission gauges and shed counter into reg. The
// gauges are pulled at snapshot time so the admit path stays atomic-only.
func (a *admission) export(reg *obs.Registry) {
	reg.CounterFunc(MetricAdmissionInflight, func() uint64 { return uint64(a.inflight.Load()) })
	reg.CounterFunc(MetricAdmissionQueued, func() uint64 { return uint64(a.queued.Load()) })
	reg.CounterFunc(MetricAdmissionShed, a.shed.Load)
}

// clampWeight bounds a request's weight to [1, Limit] so one oversized
// batch can neither starve forever nor deadlock the semaphore.
func (a *admission) clampWeight(w int64) int64 {
	if w < 1 {
		w = 1
	}
	if lim := int64(a.cfg.Limit); w > lim {
		w = lim
	}
	return w
}

// acquire admits weight w (clamped) or reports why it was shed. The
// wait is bounded by min(cfg.Timeout, the request's own remaining
// deadline); a request that could only be admitted after its caller's
// deadline is shed rather than queued.
func (a *admission) acquire(r *http.Request, w int64) (shedReason, bool) {
	w = a.clampWeight(w)

	wait := a.cfg.Timeout
	deadlineBound := false
	if deadline, ok := r.Context().Deadline(); ok {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			a.shed.Add(1)
			return shedDeadline, false
		}
		if remaining < wait {
			wait = remaining
			deadlineBound = true
		}
	}

	a.mu.Lock()
	if a.waiters.Len() == 0 && a.cur+w <= int64(a.cfg.Limit) {
		a.cur += w
		a.mu.Unlock()
		a.inflight.Add(w)
		return "", true
	}
	if wait <= 0 || a.waiters.Len() >= a.cfg.Queue {
		a.mu.Unlock()
		a.shed.Add(1)
		if wait <= 0 {
			return shedTimeout, false
		}
		return shedQueueFull, false
	}
	wtr := &admitWaiter{weight: w, ready: make(chan struct{})}
	elem := a.waiters.PushBack(wtr)
	a.queued.Add(1)
	a.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-wtr.ready:
		a.queued.Add(-1)
		a.inflight.Add(w)
		return "", true
	case <-timer.C:
	case <-r.Context().Done():
	}

	// Timed out or the caller went away — but the grant may have raced
	// us. ready is only closed under a.mu, so a locked re-check decides.
	a.mu.Lock()
	select {
	case <-wtr.ready:
		a.mu.Unlock()
		a.queued.Add(-1)
		a.inflight.Add(w)
		return "", true
	default:
	}
	a.waiters.Remove(elem)
	a.mu.Unlock()
	a.queued.Add(-1)
	a.shed.Add(1)
	if deadlineBound || r.Context().Err() != nil {
		// The wait was cut short by the request's own deadline, not by
		// the server's queue policy.
		return shedDeadline, false
	}
	return shedTimeout, false
}

// release returns weight w (clamped identically to acquire) and grants
// queued waiters from the front while they fit.
func (a *admission) release(w int64) {
	w = a.clampWeight(w)
	a.inflight.Add(-w)
	a.mu.Lock()
	a.cur -= w
	for e := a.waiters.Front(); e != nil; e = a.waiters.Front() {
		wtr := e.Value.(*admitWaiter)
		if a.cur+wtr.weight > int64(a.cfg.Limit) {
			break
		}
		a.cur += wtr.weight
		a.waiters.Remove(e)
		close(wtr.ready)
	}
	a.mu.Unlock()
}

// retryAfterSeconds is the Retry-After hint on sheds: the configured
// queue timeout rounded up — by then the present wave has either
// finished or been shed itself — and at least 1, the header's floor.
func (a *admission) retryAfterSeconds() int {
	secs := int(math.Ceil(a.cfg.Timeout.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeShed emits the 503 shed response with Retry-After.
func (a *admission) writeShed(w http.ResponseWriter, reason shedReason) {
	retry := a.retryAfterSeconds()
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeJSON(w, http.StatusServiceUnavailable, AdmissionErrorResponse{
		Error:             "server overloaded, request shed (" + string(reason) + ")",
		Reason:            string(reason),
		RetryAfterSeconds: retry,
	})
}

// admitHTTP acquires weight for r, or writes the 503 shed response and
// reports false. On success the caller must invoke the returned release.
func (a *admission) admitHTTP(w http.ResponseWriter, r *http.Request, weight int64) (func(), bool) {
	reason, ok := a.acquire(r, weight)
	if !ok {
		a.writeShed(w, reason)
		return nil, false
	}
	return func() { a.release(weight) }, true
}

// middleware gates every request at weight 1, except paths in selfAdmit
// (batch endpoints, which acquire their item-count weight after
// decoding) and the pprof prefix (profiling during overload is exactly
// when an operator needs it). The operational endpoints /healthz,
// /readyz, and /v1/metrics never reach this handler — obs.Instrument
// answers them upstream — so probes and metric scrapes always bypass
// the limiter.
func (a *admission) middleware(next http.Handler, selfAdmit []string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slices.Contains(selfAdmit, r.URL.Path) || strings.HasPrefix(r.URL.Path, PathPprof) {
			next.ServeHTTP(w, r)
			return
		}
		release, ok := a.admitHTTP(w, r, 1)
		if !ok {
			return
		}
		defer release()
		next.ServeHTTP(w, r)
	})
}
