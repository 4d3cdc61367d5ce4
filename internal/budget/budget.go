// Package budget is the multi-tenant privacy-budget ledger of the
// serving stack. It generalizes the single-user dp.Accountant into a
// sharded map of per-principal accounts so a production LBS deployment
// can bound every user's cumulative privacy loss server-side — the
// missing piece between Theorem 4's per-release (ε, δ) guarantee and an
// end-to-end one under the paper's §V trajectory attacks, which exploit
// exactly the *successive* releases an unmetered service hands out.
//
// A Ledger enforces two composable policies per principal:
//
//   - a hard lifetime budget (basic sequential composition, like
//     dp.Accountant), and
//   - a sliding-window refill budget — at most (WindowEps, WindowDelta)
//     spent inside any window of the configured length — so long-lived
//     principals keep releasing at a bounded rate instead of being
//     locked out forever.
//
// Time is injected (WithClock), so the window policy and idle eviction
// are tested with a deterministic fake clock and never sleep. Memory is
// bounded under millions of principals by TTL-based idle eviction:
// accounts idle past IdleTTL are demoted to a compact retired record
// (lifetime totals only — the irreducible floor for a sound lifetime
// accountant) and revived on their next spend. State survives restarts
// via JSON snapshots plus an append-only spend log (persist.go).
//
// All methods are safe for concurrent use; the hot path takes one shard
// mutex plus a few atomics.
package budget

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"poiagg/internal/hash64"
	"poiagg/internal/obs"
)

// Clock supplies the ledger's notion of now. Tests inject fakes.
type Clock func() time.Time

// Denial classifies why a spend was refused.
type Denial string

// Denial reasons.
const (
	// DenyLifetime: the principal's hard lifetime budget is exhausted;
	// no amount of waiting refills it.
	DenyLifetime Denial = "lifetime"
	// DenyWindow: the sliding-window budget is exhausted; the spend
	// becomes admissible again after Decision.RetryAfter.
	DenyWindow Denial = "window"
)

// Policy configures every principal's budget. The zero value is invalid;
// LifetimeEps must be positive.
type Policy struct {
	// LifetimeEps and LifetimeDelta bound the principal's total privacy
	// loss under basic sequential composition. LifetimeEps must be > 0;
	// LifetimeDelta must be in [0, 1).
	LifetimeEps   float64
	LifetimeDelta float64

	// Window is the sliding-window length; 0 disables the window policy.
	Window time.Duration
	// WindowEps and WindowDelta bound the spend inside any Window-long
	// interval. Required positive (eps) when Window > 0. WindowDelta 0
	// leaves delta un-windowed.
	WindowEps   float64
	WindowDelta float64

	// IdleTTL demotes accounts idle this long to compact retired records
	// on EvictIdle. 0 disables eviction. When both Window and IdleTTL
	// are set, IdleTTL must be ≥ Window so demotion never forgets live
	// window entries (eviction is lossless).
	IdleTTL time.Duration
}

// Validate reports whether the policy is usable.
func (p Policy) Validate() error {
	if p.LifetimeEps <= 0 {
		return fmt.Errorf("budget: lifetime epsilon must be positive, got %v", p.LifetimeEps)
	}
	if p.LifetimeDelta < 0 || p.LifetimeDelta >= 1 {
		return fmt.Errorf("budget: lifetime delta must be in [0,1), got %v", p.LifetimeDelta)
	}
	if p.Window < 0 {
		return fmt.Errorf("budget: window must be non-negative, got %v", p.Window)
	}
	if p.Window > 0 && p.WindowEps <= 0 {
		return fmt.Errorf("budget: window epsilon must be positive with a window, got %v", p.WindowEps)
	}
	if p.WindowDelta < 0 || p.WindowDelta >= 1 {
		return fmt.Errorf("budget: window delta must be in [0,1), got %v", p.WindowDelta)
	}
	if p.IdleTTL < 0 {
		return fmt.Errorf("budget: idle TTL must be non-negative, got %v", p.IdleTTL)
	}
	if p.IdleTTL > 0 && p.Window > 0 && p.IdleTTL < p.Window {
		return fmt.Errorf("budget: idle TTL %v must be >= window %v so eviction stays lossless",
			p.IdleTTL, p.Window)
	}
	return nil
}

// Decision reports the outcome of a spend (or a Status dry-run) with the
// principal's post-decision accounting — everything a 429 body or an
// admin endpoint needs.
type Decision struct {
	Principal string
	Allowed   bool
	// Denial is set when Allowed is false.
	Denial Denial
	// SpentEps/SpentDelta are the lifetime totals, including this spend
	// when it was allowed.
	SpentEps   float64
	SpentDelta float64
	// RemainingEps/RemainingDelta are the lifetime budget left.
	RemainingEps   float64
	RemainingDelta float64
	// WindowRemainingEps/Delta are the sliding-window budget left right
	// now (equal to the lifetime remainders when no window is set).
	WindowRemainingEps   float64
	WindowRemainingDelta float64
	// Releases counts the principal's granted releases.
	Releases uint64
	// RetryAfter is how long until a window-denied spend of the same
	// size becomes admissible; 0 for allowed or lifetime-denied spends.
	RetryAfter time.Duration
}

// spendRec is one granted spend inside the sliding window.
type spendRec struct {
	t          time.Time
	eps, delta float64
}

// account is one principal's live ledger entry.
type account struct {
	seq        uint64 // mutation counter, threads the persistence log
	spentEps   float64
	spentDelta float64
	releases   uint64
	last       time.Time  // last touch, drives idle eviction
	window     []spendRec // granted spends young enough to count, oldest first
}

// retired is the compact demotion of an idle account: lifetime totals
// only. Reviving one restores a full account with an empty window —
// lossless because eviction requires the window to be empty.
type retired struct {
	seq        uint64
	spentEps   float64
	spentDelta float64
	releases   uint64
}

// shard is one lock domain of the ledger.
type shard struct {
	mu       sync.Mutex
	accounts map[string]*account
	retired  map[string]retired
}

// Metric names exported by ExportMetrics.
const (
	// MetricSpends counts granted spends.
	MetricSpends = "budget.spends"
	// MetricDenies counts refused spends (all reasons).
	MetricDenies = "budget.denies"
	// MetricDeniesLifetime counts refusals against the lifetime budget.
	MetricDeniesLifetime = "budget.denies.lifetime"
	// MetricEvictions counts idle accounts demoted to retired records.
	MetricEvictions = "budget.evictions"
	// MetricRevivals counts retired principals restored by a new spend.
	MetricRevivals = "budget.revivals"
	// MetricPersistErrors counts spend-log or snapshot write failures.
	MetricPersistErrors = "budget.persist.errors"
	// MetricPrincipals gauges live (non-retired) accounts, pulled at
	// snapshot time.
	MetricPrincipals = "budget.principals"
	// MetricRetired gauges retired records, pulled at snapshot time.
	MetricRetired = "budget.retired"
	// MetricShards gauges the shard count.
	MetricShards = "budget.shards"
	// LatencyDecision names the decision-latency histogram in the
	// registry snapshot.
	LatencyDecision = "budget.decision"
)

// Ledger is the concurrent multi-tenant budget ledger. Create with New
// (in-memory) or Open (persistent).
type Ledger struct {
	policy Policy
	clock  Clock
	shards []shard
	mask   uint64

	store         *store // nil when in-memory
	snapshotEvery int    // auto-snapshot after this many logged records

	spends, denies, deniesLifetime obs.Counter
	evictions, revivals            obs.Counter
	persistErrs                    obs.Counter
	decLat                         obs.Histogram
}

// Option customizes a Ledger.
type Option func(*Ledger)

// WithClock injects the time source (default time.Now). The clock must
// be safe for concurrent use and should return UTC times when the ledger
// is persistent, so snapshots round-trip byte-identically.
func WithClock(c Clock) Option {
	return func(l *Ledger) {
		if c != nil {
			l.clock = c
		}
	}
}

// WithShards sets the lock-shard count, rounded up to a power of two
// (default: sized to ~2× GOMAXPROCS like the GSP freq cache, capped at
// 128). 1 yields the single-mutex reference configuration the
// BenchmarkLedgerSpendParallel ablation compares against.
func WithShards(n int) Option {
	return func(l *Ledger) {
		if n < 1 {
			return
		}
		p := 1
		for p < n && p < 128 {
			p <<= 1
		}
		l.shards = make([]shard, p)
		l.mask = uint64(p - 1)
	}
}

// WithSnapshotEvery makes a persistent ledger write a snapshot (and
// truncate the spend log) automatically after every n logged mutations,
// bounding replay work after a crash. 0 (the default) snapshots only on
// explicit WriteSnapshot/Close. No effect on in-memory ledgers.
func WithSnapshotEvery(n int) Option {
	return func(l *Ledger) {
		if n >= 0 {
			l.snapshotEvery = n
		}
	}
}

// New returns an in-memory ledger enforcing policy for every principal.
func New(policy Policy, opts ...Option) (*Ledger, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	l := &Ledger{policy: policy, clock: time.Now}
	defaultShards(l)
	for _, opt := range opts {
		opt(l)
	}
	for i := range l.shards {
		l.shards[i].accounts = make(map[string]*account)
		l.shards[i].retired = make(map[string]retired)
	}
	return l, nil
}

// Policy returns the ledger's policy.
func (l *Ledger) Policy() Policy { return l.policy }

// shardFor hashes the principal with hash64.String, whose finalizer
// spreads short sequential names across shards.
func (l *Ledger) shardFor(principal string) *shard {
	return &l.shards[hash64.String(principal)&l.mask]
}

// Spend charges one (eps, delta) release to the principal, creating (or
// reviving) its account on first use. A refusal records nothing; the
// returned Decision carries the reason, the remaining budget, and — for
// window denials — how long until the same spend would be admitted.
func (l *Ledger) Spend(principal string, eps, delta float64) (Decision, error) {
	if principal == "" {
		return Decision{}, fmt.Errorf("budget: Spend: empty principal")
	}
	if eps <= 0 {
		return Decision{}, fmt.Errorf("budget: Spend: epsilon must be positive, got %v", eps)
	}
	if delta < 0 || delta >= 1 {
		return Decision{}, fmt.Errorf("budget: Spend: delta must be in [0,1), got %v", delta)
	}
	start := time.Now()
	// UTC so persisted timestamps round-trip byte-identically; latency
	// below uses the real clock, never the injected one.
	now := l.clock().UTC()

	s := l.shardFor(principal)
	s.mu.Lock()
	acc, live, revived := s.peek(principal)
	dec, rec := l.decide(acc, principal, eps, delta, now)
	if dec.Allowed && !live {
		// A principal materializes (and a retired record demotes) only on
		// a granted, logged mutation: denied spends leave zero trace, so
		// log replay reconstructs the ledger byte-for-byte.
		s.install(principal, acc, revived)
	}
	s.mu.Unlock()

	if dec.Allowed {
		if revived {
			l.revivals.Inc()
		}
		l.spends.Inc()
		if l.store != nil {
			l.appendRec(rec)
		}
	} else {
		l.denies.Inc()
		if dec.Denial == DenyLifetime {
			l.deniesLifetime.Inc()
		}
	}
	l.decLat.Observe(time.Since(start))
	return dec, nil
}

// decide applies both policies and mutates acc on success. Caller holds
// the shard lock. The returned logRec is valid only when allowed.
func (l *Ledger) decide(acc *account, principal string, eps, delta float64, now time.Time) (Decision, logRec) {
	const slack = 1e-12 // absorb float accumulation, like dp.Accountant
	p := l.policy

	// Sum the live window by filtering, without pruning: a denied spend
	// must not mutate the account (replay never sees denials).
	var winEps, winDelta float64
	for _, r := range acc.window {
		if r.t.Add(p.Window).After(now) {
			winEps += r.eps
			winDelta += r.delta
		}
	}

	dec := Decision{Principal: principal}
	switch {
	case acc.spentEps+eps > p.LifetimeEps+slack,
		acc.spentDelta+delta > p.LifetimeDelta+slack:
		dec.Denial = DenyLifetime
	case p.Window > 0 && (winEps+eps > p.WindowEps+slack ||
		(p.WindowDelta > 0 && winDelta+delta > p.WindowDelta+slack)):
		dec.Denial = DenyWindow
		dec.RetryAfter = l.retryAfter(acc, eps, delta, winEps, winDelta, now)
	default:
		dec.Allowed = true
		acc.seq++
		acc.spentEps += eps
		acc.spentDelta += delta
		acc.releases++
		acc.last = now
		if p.Window > 0 {
			l.pruneWindow(acc, now)
			acc.window = append(acc.window, spendRec{t: now, eps: eps, delta: delta})
			winEps += eps
			winDelta += delta
		}
	}

	dec.SpentEps = acc.spentEps
	dec.SpentDelta = acc.spentDelta
	dec.Releases = acc.releases
	dec.RemainingEps = p.LifetimeEps - acc.spentEps
	dec.RemainingDelta = p.LifetimeDelta - acc.spentDelta
	dec.WindowRemainingEps = dec.RemainingEps
	dec.WindowRemainingDelta = dec.RemainingDelta
	if p.Window > 0 {
		dec.WindowRemainingEps = min(dec.WindowRemainingEps, p.WindowEps-winEps)
		if p.WindowDelta > 0 {
			dec.WindowRemainingDelta = min(dec.WindowRemainingDelta, p.WindowDelta-winDelta)
		}
	}
	return dec, logRec{P: principal, Seq: acc.seq, T: now, Eps: eps, Delta: delta}
}

// retryAfter walks the live window from its oldest entry and reports
// when enough budget will have slid out for an (eps, delta) spend to
// fit. Caller holds the shard lock; winEps/winDelta are the live sums.
func (l *Ledger) retryAfter(acc *account, eps, delta, winEps, winDelta float64, now time.Time) time.Duration {
	const slack = 1e-12
	p := l.policy
	for _, r := range acc.window {
		if !r.t.Add(p.Window).After(now) {
			continue // already expired; contributed nothing to the sums
		}
		winEps -= r.eps
		winDelta -= r.delta
		if winEps+eps <= p.WindowEps+slack &&
			(p.WindowDelta == 0 || winDelta+delta <= p.WindowDelta+slack) {
			return r.t.Add(p.Window).Sub(now)
		}
	}
	// The spend alone exceeds the window budget: waiting never helps.
	return 0
}

// pruneWindow drops window entries that have slid out. An entry spends
// for exactly [t, t+Window). Caller holds the shard lock.
func (l *Ledger) pruneWindow(acc *account, now time.Time) {
	if l.policy.Window == 0 {
		return
	}
	i := 0
	for i < len(acc.window) && !acc.window[i].t.Add(l.policy.Window).After(now) {
		i++
	}
	if i > 0 {
		acc.window = append(acc.window[:0], acc.window[i:]...)
	}
}

// peek returns the principal's live account, or a detached one built
// from its retired record (or zeroed). The caller installs it only when
// a logged mutation justifies it, so a denied first contact leaves no
// trace. Caller holds the shard lock.
func (s *shard) peek(principal string) (acc *account, live, revived bool) {
	if acc, ok := s.accounts[principal]; ok {
		return acc, true, false
	}
	acc = &account{}
	if r, ok := s.retired[principal]; ok {
		acc.seq = r.seq
		acc.spentEps = r.spentEps
		acc.spentDelta = r.spentDelta
		acc.releases = r.releases
		return acc, false, true
	}
	return acc, false, false
}

// install makes a peeked account live. Caller holds the shard lock.
func (s *shard) install(principal string, acc *account, revived bool) {
	s.accounts[principal] = acc
	if revived {
		delete(s.retired, principal)
	}
}

// Status reports the principal's accounting without spending. Unknown
// principals report a full budget.
func (l *Ledger) Status(principal string) Decision {
	now := l.clock()
	p := l.policy
	s := l.shardFor(principal)
	s.mu.Lock()
	defer s.mu.Unlock()

	dec := Decision{
		Principal:            principal,
		Allowed:              true,
		RemainingEps:         p.LifetimeEps,
		RemainingDelta:       p.LifetimeDelta,
		WindowRemainingEps:   p.LifetimeEps,
		WindowRemainingDelta: p.LifetimeDelta,
	}
	var winEps, winDelta float64
	if acc, ok := s.accounts[principal]; ok {
		dec.SpentEps = acc.spentEps
		dec.SpentDelta = acc.spentDelta
		dec.Releases = acc.releases
		for _, r := range acc.window {
			if r.t.Add(p.Window).After(now) {
				winEps += r.eps
				winDelta += r.delta
			}
		}
	} else if r, ok := s.retired[principal]; ok {
		dec.SpentEps = r.spentEps
		dec.SpentDelta = r.spentDelta
		dec.Releases = r.releases
	}
	dec.RemainingEps = p.LifetimeEps - dec.SpentEps
	dec.RemainingDelta = p.LifetimeDelta - dec.SpentDelta
	dec.WindowRemainingEps = dec.RemainingEps
	dec.WindowRemainingDelta = dec.RemainingDelta
	if p.Window > 0 {
		dec.WindowRemainingEps = min(dec.WindowRemainingEps, p.WindowEps-winEps)
		if p.WindowDelta > 0 {
			dec.WindowRemainingDelta = min(dec.WindowRemainingDelta, p.WindowDelta-winDelta)
		}
	}
	return dec
}

// Reset zeroes the principal's accounting — an operator action (e.g.
// after rotating the underlying dataset), logged for replay like any
// other mutation.
func (l *Ledger) Reset(principal string) {
	now := l.clock().UTC()
	s := l.shardFor(principal)
	s.mu.Lock()
	acc, live, revived := s.peek(principal)
	if !live {
		s.install(principal, acc, revived)
	}
	acc.seq++
	acc.spentEps = 0
	acc.spentDelta = 0
	acc.releases = 0
	acc.window = acc.window[:0]
	acc.last = now
	rec := logRec{P: principal, Seq: acc.seq, T: now, Reset: true}
	s.mu.Unlock()
	if revived {
		l.revivals.Inc()
	}
	if l.store != nil {
		l.appendRec(rec)
	}
}

// EvictIdle demotes accounts idle for at least IdleTTL to compact
// retired records and returns how many it demoted. Demotion is lossless:
// the policy guarantees IdleTTL ≥ Window, so an idle account's window
// entries have all expired by the time it qualifies. Demotions are not
// written to the spend log (they change no budget); persistent ledgers
// should follow a sweep with WriteSnapshot, as Close does. Daemons call
// this on a timer; tests drive it with the fake clock.
func (l *Ledger) EvictIdle() int {
	if l.policy.IdleTTL == 0 {
		return 0
	}
	now := l.clock().UTC()
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		for principal, acc := range s.accounts {
			if now.Sub(acc.last) < l.policy.IdleTTL {
				continue
			}
			live := false
			for _, r := range acc.window {
				// Unreachable when IdleTTL ≥ Window (every entry is older
				// than last), but guard anyway: never discard live spend.
				if r.t.Add(l.policy.Window).After(now) {
					live = true
					break
				}
			}
			if live {
				continue
			}
			s.retired[principal] = retired{
				seq:        acc.seq,
				spentEps:   acc.spentEps,
				spentDelta: acc.spentDelta,
				releases:   acc.releases,
			}
			delete(s.accounts, principal)
			n++
		}
		s.mu.Unlock()
	}
	l.evictions.Add(uint64(n))
	return n
}

// Principals returns the live (non-retired) account count.
func (l *Ledger) Principals() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += len(s.accounts)
		s.mu.Unlock()
	}
	return n
}

// Retired returns the retired-record count.
func (l *Ledger) Retired() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += len(s.retired)
		s.mu.Unlock()
	}
	return n
}

// ExportMetrics publishes the ledger's counters, pull gauges, and the
// decision-latency histogram into reg, so they appear in the daemon's
// /v1/metrics snapshot next to the HTTP routes.
func (l *Ledger) ExportMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc(MetricSpends, l.spends.Value)
	reg.CounterFunc(MetricDenies, l.denies.Value)
	reg.CounterFunc(MetricDeniesLifetime, l.deniesLifetime.Value)
	reg.CounterFunc(MetricEvictions, l.evictions.Value)
	reg.CounterFunc(MetricRevivals, l.revivals.Value)
	reg.CounterFunc(MetricPersistErrors, l.persistErrs.Value)
	reg.CounterFunc(MetricPrincipals, func() uint64 { return uint64(l.Principals()) })
	reg.CounterFunc(MetricRetired, func() uint64 { return uint64(l.Retired()) })
	reg.CounterFunc(MetricShards, func() uint64 { return uint64(len(l.shards)) })
	reg.RegisterLatency(LatencyDecision, &l.decLat)
}

// defaultShards mirrors the GSP cache's sizing: a power of two around 2×
// the available parallelism, capped at 128.
func defaultShards(l *Ledger) {
	WithShards(2 * runtime.GOMAXPROCS(0))(l)
}
