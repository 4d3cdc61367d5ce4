package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opKind names an operation type in reports and spans.
type opKind uint8

const (
	opFreq opKind = iota
	opBatch
	opRelease
	opIngest
)

var kindNames = [...]string{"freq", "batch", "release", "ingest"}

func (k opKind) String() string { return kindNames[k] }

// sample is one operation as the generator saw it. Times are offsets from
// the start of its phase.
type sample struct {
	due, send, end time.Duration
	// status is the HTTP status, 0 when no response arrived.
	status int
	kind   opKind
	err    error
}

// opFunc performs operation i of a phase and reports its kind, the HTTP
// status (0 when no response arrived) and why it failed, if it did.
type opFunc func(ctx context.Context, i int) (opKind, int, error)

// openLoop sends rate × d operations on the schedule due_i = t0 + i/rate
// from senders goroutines. A sender that falls behind sends the next due
// operation at once, so nothing is dropped: a stall shows up as lateness
// (send − due) and in every later operation's latency (end − due).
func openLoop(ctx context.Context, rate float64, d time.Duration, senders int, do opFunc) []sample {
	n := int(math.Round(rate * d.Seconds()))
	out := make([]sample, n)
	period := float64(time.Second) / rate
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) * period)
				if wait := due - time.Since(t0); wait > 0 {
					sleepFor(wait)
				}
				s := sample{due: due, send: time.Since(t0)}
				s.kind, s.status, s.err = do(ctx, i)
				s.end = time.Since(t0)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepFor blocks the calling thread in nanosleep, whose timer fires
// within tens of microseconds. time.Sleep would round a sub-millisecond
// wait up to 1 ms whenever the process is otherwise idle, because the
// runtime then waits for timers in epoll, which counts in milliseconds.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// closedLoop runs conns workers that each send their next operation as
// soon as the previous one completes, until d has passed. It returns every
// operation started within d; each one's due time is its send time.
func closedLoop(ctx context.Context, d time.Duration, conns int, do opFunc) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	t0 := time.Now()
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for ctx.Err() == nil {
				send := time.Since(t0)
				if send >= d {
					break
				}
				s := sample{due: send, send: send}
				s.kind, s.status, s.err = do(ctx, int(next.Add(1)-1))
				s.end = time.Since(t0)
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// minTail is the fewest samples that must lie beyond a reported
// percentile, so that a p99 needs n ≥ 1000.
const minTail = 10

// nearestRank returns the p-quantile (0 < p ≤ 1) of ascending values by
// the nearest-rank method: the value at rank ⌈p·n⌉.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank ⌈p·n⌉, at least 1. The epsilon keeps
// p·n that is whole in exact arithmetic from rounding up a rank.
func rankOf(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)-1e-9)))
}

// quantile is nearestRank with the tail guard: it fails unless at least
// minTail samples lie beyond the p-quantile.
func quantile(sorted []float64, p float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, fmt.Errorf("p%g of no samples", 100*p)
	}
	if beyond := len(sorted) - rankOf(len(sorted), p); beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, n=%d has %d", 100*p, minTail, len(sorted), beyond)
	}
	return nearestRank(sorted, p), nil
}

// sortedMs returns f(s) of every sample, in milliseconds, ascending.
func sortedMs(ss []sample, f func(sample) time.Duration) []float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = ms(f(s))
	}
	sort.Float64s(v)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func latency(s sample) time.Duration  { return s.end - s.due }
func lateness(s sample) time.Duration { return s.send - s.due }
func service(s sample) time.Duration  { return s.end - s.send }

// latenciesMs returns every operation's latency from its due time in ms,
// ascending, with a failed operation as +Inf: it misses any latency
// limit, so a change that fails operations fast cannot look faster.
func latenciesMs(ss []sample) []float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = ms(latency(s))
		if s.err != nil {
			v[i] = math.Inf(1)
		}
	}
	sort.Float64s(v)
	return v
}

// phaseStats summarizes one phase.
type phaseStats struct {
	// p50 and p99 are latencies from the due time, in ms; p99 is +Inf
	// when it falls on a failed operation.
	p50, p99 float64
	// lateP99 is the p99 of send − due, in ms.
	lateP99 float64
	// serviceMean is the mean of end − send, in ms.
	serviceMean float64
	// backlog is set when the generator fell further behind over the phase.
	backlog bool
	// okWithin counts successful operations that ended within the phase.
	okWithin int
}

// summarize computes a phase's statistics. d is the phase length. With
// fixedRate set it also computes the latency quantiles, which need enough
// samples for a p99 and fewer than half of them failed.
func summarize(ss []sample, d time.Duration, fixedRate bool) (phaseStats, error) {
	var st phaseStats
	var svc time.Duration
	failed := 0
	for _, s := range ss {
		svc += service(s)
		if s.err != nil {
			failed++
		} else if s.end <= d {
			st.okWithin++
		}
	}
	if len(ss) == 0 {
		return st, fmt.Errorf("phase sent no operations")
	}
	st.serviceMean = ms(svc) / float64(len(ss))
	st.lateP99 = nearestRank(sortedMs(ss, lateness), 0.99)
	st.backlog = backlogGrows(ss)
	if !fixedRate {
		return st, nil
	}
	lat := latenciesMs(ss)
	st.p50 = nearestRank(lat, 0.50)
	if math.IsInf(st.p50, 1) {
		return st, fmt.Errorf("%d of %d operations failed, so the p50 latency is a failure", failed, len(ss))
	}
	var err error
	st.p99, err = quantile(lat, 0.99)
	return st, err
}

// backlogGrows reports whether lateness grew over an open-loop phase: the
// median lateness of the last quarter of operations is more than twice
// that of the first quarter plus 1 ms.
func backlogGrows(ss []sample) bool {
	q := len(ss) / 4
	if q == 0 {
		return false
	}
	first := nearestRank(sortedMs(ss[:q], lateness), 0.5)
	last := nearestRank(sortedMs(ss[len(ss)-q:], lateness), 0.5)
	return last > 2*first+1
}

// span is one operation in the trace file.
type span struct {
	ID     int    `json:"id"`
	Kind   string `json:"kind"`
	DueUs  int64  `json:"dueUs"`
	SendUs int64  `json:"sendUs"`
	EndUs  int64  `json:"endUs"`
	Status int    `json:"status"`
}

// writeSpans writes one span per operation to path.
func writeSpans(path string, ss []sample) error {
	spans := make([]span, len(ss))
	for i, s := range ss {
		spans[i] = span{ID: i, Kind: s.kind.String(), DueUs: s.due.Microseconds(),
			SendUs: s.send.Microseconds(), EndUs: s.end.Microseconds(), Status: s.status}
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
