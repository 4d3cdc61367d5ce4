package stream

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/defense"
	"poiagg/internal/obs"
	"poiagg/internal/poi"
	"poiagg/internal/rng"
)

// Releaser defaults.
const (
	// DefaultInterval is the production tick period.
	DefaultInterval = time.Minute
	// DefaultHistory bounds how many past window releases are kept.
	DefaultHistory = 64
)

// ReleaserConfig parameterizes the windowed releaser.
type ReleaserConfig struct {
	// Interval is the tick period for Start; Tick itself is driven
	// explicitly by its caller's clock.
	Interval time.Duration
	// Seed roots the release noise: tick k draws from
	// rng.New(Seed).Split(k), so a replay with the same seed and tick
	// schedule reproduces every release bit for bit.
	Seed uint64
	// History bounds the in-memory window-release history.
	History int
	// Eps/Delta is the privacy cost charged to each contributing
	// principal's budget account per window release.
	Eps, Delta float64
}

// WindowRelease is one windowed DP aggregate as the server sees it.
// Only the Public projection crosses the wire: Users and Events are
// exact, un-noised functions of real participation (not covered by the
// DP guarantee, which protects Freq alone), and Denied names tenants —
// all three are operator-side observability, never published.
type WindowRelease struct {
	// Tick is the release's sequence number, starting at 0.
	Tick uint64 `json:"tick"`
	// Time is the window end (the tick time).
	Time time.Time `json:"time"`
	// Users is how many users contributed to the aggregate. Exact, so
	// server-side only (metrics / replay comparison).
	Users int `json:"users"`
	// Events is how many window events those users contributed. Exact,
	// so server-side only.
	Events int `json:"events"`
	// Denied lists principals whose budget was exhausted this window;
	// their users are excluded from the aggregate. Tenant identities —
	// server-side only; the Public view carries an anonymous count.
	Denied []string `json:"denied,omitempty"`
	// Freq is the DP-protected frequency vector; empty when no user
	// contributed.
	Freq poi.FreqVector `json:"freq,omitempty"`
}

// PublicRelease is the externally publishable projection of a
// WindowRelease: the DP-protected frequency vector plus tick/time
// metadata. Exact contributor counts stay server-side (publishing them
// would let an observer detect a single user joining or leaving a
// window, breaking the (ε, δ) claim), and denied tenants are reported
// only as a count — naming them would hand any caller the cross-tenant
// budget inspection that the budget admin endpoints 403.
type PublicRelease struct {
	Tick uint64    `json:"tick"`
	Time time.Time `json:"time"`
	// DeniedPrincipals counts tenants excluded from this window for
	// budget exhaustion, without identifying them. Per-tenant detail is
	// on the tenant-scoped GET /v1/budget/{principal}.
	DeniedPrincipals int            `json:"deniedPrincipals,omitempty"`
	Freq             poi.FreqVector `json:"freq,omitempty"`
}

// Public returns the release's publishable view.
func (wr WindowRelease) Public() PublicRelease {
	return PublicRelease{
		Tick:             wr.Tick,
		Time:             wr.Time,
		DeniedPrincipals: len(wr.Denied),
		Freq:             wr.Freq,
	}
}

// Releaser periodically turns the window store's state into a DP
// release: each tick it takes every active user's window sum from the
// store, charges each contributing principal's budget, feeds the
// admitted users' sums through defense.DPRelease (the users play the
// role of the cloak's k dummies), and appends the result to a bounded
// history.
type Releaser struct {
	store *Store
	mech  *defense.DPRelease
	spend spendFunc // the ledger's Spend; nil disables budget charging
	cfg   ReleaserConfig
	src   *rng.Source

	// tickMu serializes Tick and guards the charge memo. A tick holds
	// it while it counts new window events, charges budgets and draws
	// the noise.
	tickMu sync.Mutex
	// chargeTick/charged memoize the durable spend decisions already
	// made for the in-progress tick, so a Tick retried after a mid-loop
	// Spend failure skips the principals it already charged instead of
	// double-spending them for one window.
	chargeTick uint64
	charged    map[string]bool // principal → allowed

	// mu guards the published state. Tick takes it only to publish, so
	// Ticks and History (and through them /v1/metrics and the public
	// releases) never wait for a tick's computation. Tick writes ticks
	// under both locks, so it may read ticks under tickMu alone.
	mu      sync.Mutex
	ticks   uint64
	history []WindowRelease

	released  obs.Counter
	denials   obs.Counter
	lastUsers obs.Gauge
}

// spendFunc is the budget-charging hook: budget.(*Ledger).Spend in
// production, swappable in tests to inject mid-loop failures.
type spendFunc func(principal string, eps, delta float64) (budget.Decision, error)

// NewReleaser wires a releaser over a store, the DP mechanism, and an
// optional budget ledger.
func NewReleaser(store *Store, mech *defense.DPRelease, led *budget.Ledger, cfg ReleaserConfig) (*Releaser, error) {
	if store == nil || mech == nil {
		return nil, fmt.Errorf("stream: NewReleaser: nil store or mechanism")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.History <= 0 {
		cfg.History = DefaultHistory
	}
	if led != nil && cfg.Eps <= 0 {
		return nil, fmt.Errorf("stream: NewReleaser: budget charging enabled but Eps = %v", cfg.Eps)
	}
	r := &Releaser{
		store: store,
		mech:  mech,
		cfg:   cfg,
		src:   rng.New(cfg.Seed),
	}
	if led != nil {
		r.spend = led.Spend
	}
	return r, nil
}

// Config returns the releaser's effective configuration.
func (r *Releaser) Config() ReleaserConfig { return r.cfg }

// Mechanism returns the DP mechanism each tick releases through.
func (r *Releaser) Mechanism() *defense.DPRelease { return r.mech }

// Tick publishes one windowed release for the window ending at now. It
// is fully deterministic given the store contents, the tick index, and
// the seed: users and principals are processed in sorted order and the
// noise source for tick k is Split(k) off the seeded root, independent
// of wall time.
func (r *Releaser) Tick(now time.Time) (WindowRelease, error) {
	r.tickMu.Lock()
	defer r.tickMu.Unlock()

	active := r.store.ActiveAt(now)
	rel := WindowRelease{Tick: r.ticks, Time: now.UTC()}

	// Charge each contributing principal once per window, in sorted
	// order so ledger state (and its persisted log) is replayable.
	// Denied principals' users are excluded from this window. Decisions
	// land in the per-tick memo as they are made: if a Spend fails
	// partway, the principals charged before the failure were charged
	// durably, and the retried Tick must not charge them again.
	deniedSet := map[string]bool{}
	if r.spend != nil && len(active) > 0 {
		if r.charged == nil || r.chargeTick != r.ticks {
			r.chargeTick = r.ticks
			r.charged = make(map[string]bool)
		}
		principals := make([]string, 0, len(active))
		seen := map[string]bool{}
		for _, u := range active {
			if !seen[u.Principal] {
				seen[u.Principal] = true
				principals = append(principals, u.Principal)
			}
		}
		sort.Strings(principals)
		for _, p := range principals {
			allowed, done := r.charged[p]
			if !done {
				dec, err := r.spend(p, r.cfg.Eps, r.cfg.Delta)
				if err != nil {
					return WindowRelease{}, fmt.Errorf("stream: Tick %d: charge %q: %w", r.ticks, p, err)
				}
				allowed = dec.Allowed
				r.charged[p] = allowed
				if !allowed {
					r.denials.Inc()
				}
			}
			if !allowed {
				deniedSet[p] = true
				rel.Denied = append(rel.Denied, p)
			}
		}
	}

	// One aggregate vector per admitted user: the sum of the freq
	// vectors of their window events, as the store keeps it.
	var vecs []poi.FreqVector
	for _, u := range active {
		if deniedSet[u.Principal] {
			continue
		}
		vecs = append(vecs, u.Sum)
		rel.Users++
		rel.Events += u.Events
	}

	if len(vecs) > 0 {
		freq, err := r.mech.ReleaseVectors(r.src.Split(r.ticks), vecs)
		if err != nil {
			return WindowRelease{}, fmt.Errorf("stream: Tick %d: %w", r.ticks, err)
		}
		rel.Freq = freq
	}

	r.mu.Lock()
	r.ticks++
	r.charged = nil // the tick published; its charge memo is spent
	r.history = append(r.history, rel)
	if len(r.history) > r.cfg.History {
		r.history = append(r.history[:0], r.history[len(r.history)-r.cfg.History:]...)
	}
	r.mu.Unlock()
	r.released.Inc()
	r.lastUsers.Set(int64(rel.Users))
	return rel, nil
}

// History returns a copy of the most recent n releases (all of the
// retained history when n <= 0), oldest first.
func (r *Releaser) History(n int) []WindowRelease {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > len(r.history) {
		n = len(r.history)
	}
	out := make([]WindowRelease, n)
	copy(out, r.history[len(r.history)-n:])
	return out
}

// Ticks returns how many window releases have been published.
func (r *Releaser) Ticks() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ticks
}

// Start runs the releaser on a wall-clock ticker at cfg.Interval until
// the returned stop function is called. Stop performs one final flush
// tick — the SIGTERM drain path uses this so events ingested since the
// last tick still make it into a release — and waits for the loop to
// exit. Tick errors are reported to onErr (which may be nil).
func (r *Releaser) Start(onErr func(error)) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(r.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				if _, err := r.Tick(now); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
			if _, err := r.Tick(r.store.Config().Clock()); err != nil && onErr != nil {
				onErr(err)
			}
		})
	}
}

// Releaser metric names.
const (
	MetricTicks             = "stream.ticks"
	MetricReleasesPublished = "stream.releases_published"
	MetricWindowDenials     = "stream.window_denials"
	MetricLastReleaseUsers  = "stream.last_release_users"
)

// ExportMetrics publishes the releaser's counters on reg.
func (r *Releaser) ExportMetrics(reg *obs.Registry) {
	reg.CounterFunc(MetricTicks, func() uint64 { return r.Ticks() })
	reg.CounterFunc(MetricReleasesPublished, r.released.Value)
	reg.CounterFunc(MetricWindowDenials, r.denials.Value)
	reg.CounterFunc(MetricLastReleaseUsers, func() uint64 { return uint64(r.lastUsers.Value()) })
}

// LoggedEvent is one ingested event as captured for offline replay: the
// event itself, the principal it was admitted under, and the server
// clock time at which it arrived (which fixes the validation and
// pruning decisions).
type LoggedEvent struct {
	At        time.Time `json:"at"`
	Principal string    `json:"principal"`
	Event     Event     `json:"event"`
}

// Replay feeds a captured event log through a fresh store/releaser pair
// against an explicit tick schedule, reproducing a live run offline:
// before each tick, every not-yet-applied logged event with arrival
// time ≤ the tick time is applied (in log order, with the clock set to
// its arrival time), then the clock is set to the tick time and the
// tick fires. With the same seed, window config, and ledger clock, the
// returned releases are bit-identical to the live run's and the budget
// ledger ends in byte-identical state.
func Replay(store *Store, rel *Releaser, clock *ManualClock, log []LoggedEvent, ticks []time.Time) ([]WindowRelease, error) {
	if store == nil || rel == nil || clock == nil {
		return nil, fmt.Errorf("stream: Replay: nil store, releaser, or clock")
	}
	out := make([]WindowRelease, 0, len(ticks))
	i := 0
	for _, tk := range ticks {
		for i < len(log) && !log[i].At.After(tk) {
			clock.Set(log[i].At)
			// A rejected event was rejected in the live run too (same
			// clock, same validation); replay ignores it the same way.
			_ = store.Apply(log[i].Event, log[i].Principal)
			i++
		}
		clock.Set(tk)
		wr, err := rel.Tick(tk)
		if err != nil {
			return nil, err
		}
		out = append(out, wr)
	}
	return out, nil
}
