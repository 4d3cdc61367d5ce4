package stream

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"poiagg/internal/geo"
	"poiagg/internal/gsp"
	"poiagg/internal/obs"
	"poiagg/internal/poi"
	"poiagg/internal/secondchance"
)

// Store defaults.
const (
	// DefaultWindow is the sliding-window length.
	DefaultWindow = 5 * time.Minute
	// DefaultMaxPerUser caps how many window events one user may hold;
	// beyond it the oldest event is dropped (shed, not buffered).
	DefaultMaxPerUser = 64
	// DefaultRadius is the per-event POI query radius in meters.
	DefaultRadius = 1000
)

// Config parameterizes a window Store.
type Config struct {
	// Window is the sliding-window length; events older than now-Window
	// are pruned (and rejected on arrival).
	Window time.Duration
	// MaxUsers caps the distinct (principal, user) windows held; when
	// full, admitting a new window evicts an idle one by the same
	// tenant-fair second-chance rule as the LBS release history
	// (-history-users): only a window of a principal holding at least as
	// many windows as the newcomer's may go.
	MaxUsers int
	// MaxPerUser caps one user's window events; the oldest is dropped
	// when exceeded.
	MaxPerUser int
	// Clock supplies "now" for validation and pruning; defaults to
	// time.Now. Tests and replay inject a ManualClock.
	Clock func() time.Time
	// City is the city the events happen in. Events outside its bounds
	// are rejected (when the bounds have positive area), and each event
	// counts the POI types within Radius of its location.
	City *gsp.City
	// Radius is the POI query radius applied to each window event.
	Radius float64
}

// windowKey addresses one user's window. Keying by (principal, userId)
// — not the client-supplied userId alone — means a tenant streaming a
// userId another tenant already uses gets its own separate window: it
// cannot re-attribute the other tenant's buffered events to its budget,
// and a budget denial against it cannot suppress them.
type windowKey struct {
	principal string
	userID    string
}

// winEvent is one stored check-in (the user id lives in the map key).
type winEvent struct {
	loc geo.Point
	ts  int64  // event time, Unix nanoseconds
	seq uint64 // arrival number, increasing in arrival order
	id  string // dedup id; "" when the client sent none
	vec string // the event's packed frequency vector; "" until counted
}

// userWindow is one user's live window state.
type userWindow struct {
	events  []winEvent
	seen    map[string]bool // ids of live events; nil until an id arrives
	sum     []int32         // sum of the counted events' vectors; nil while none is counted
	counted int             // live events whose vector is in sum
}

// Store holds bounded per-user sliding-window state and a running sum
// of each user's counted event vectors. Memory is bounded by MaxUsers ×
// MaxPerUser events, each with its packed vector, plus MaxUsers sums of
// M int32 each, regardless of how many distinct users stream or how
// fast: excess users evict via tenant-fair second chance, excess
// per-user events drop oldest, and stale events are rejected at the
// door. The dedup set adds at most one id per live event.
type Store struct {
	cfg Config
	// count fills out with the frequency vector of an event at l. It
	// runs outside mu, on an uncached service: each event is counted
	// once, so caching its one-off coordinates would only evict the
	// keys other callers reuse.
	count func(out poi.FreqVector, l geo.Point)

	mu     sync.Mutex
	users  secondchance.Map[windowKey, *userWindow]
	events int    // total events across all windows
	seq    uint64 // the next event's arrival number

	accepted     obs.Counter
	rejected     obs.Counter
	deduped      obs.Counter // at-least-once replays applied once
	dropped      obs.Counter // per-user cap drops
	usersEvicted obs.Counter
}

// NewStore builds a Store, applying defaults for zero fields.
func NewStore(cfg Config) (*Store, error) {
	if cfg.City == nil {
		return nil, fmt.Errorf("stream: NewStore: nil City")
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxUsers <= 0 {
		return nil, fmt.Errorf("stream: NewStore: MaxUsers must be positive, got %d", cfg.MaxUsers)
	}
	if cfg.MaxPerUser <= 0 {
		cfg.MaxPerUser = DefaultMaxPerUser
	}
	// A type count is at most the city's POI count, so this bounds
	// every entry of a user's int32 sum.
	if n := int64(cfg.MaxPerUser) * int64(cfg.City.NumPOIs()); n > math.MaxInt32 {
		return nil, fmt.Errorf("stream: NewStore: MaxPerUser %d × %d POIs overflows a window sum", cfg.MaxPerUser, cfg.City.NumPOIs())
	}
	if cfg.Radius <= 0 {
		cfg.Radius = DefaultRadius
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	svc := gsp.NewService(cfg.City, 0)
	s := &Store{
		cfg:   cfg,
		count: func(out poi.FreqVector, l geo.Point) { svc.FreqInto(out, l, cfg.Radius) },
	}
	s.users.Init(cfg.MaxUsers, func(k windowKey) string { return k.principal })
	return s, nil
}

// Config returns the store's effective configuration.
func (s *Store) Config() Config { return s.cfg }

// Apply validates and admits one event under the given principal. The
// window is keyed by (principal, userId), so the event only ever joins
// (and is only ever charged to) the submitting principal's own window.
// An event id already live in that window returns ErrDuplicateEvent and
// is not re-applied. Apply computes no frequency vector: the next
// ActiveAt counts the event.
func (s *Store) Apply(ev Event, principal string) error {
	now := s.cfg.Clock()
	if err := ev.Validate(now, s.cfg.Window, s.cfg.City.Bounds); err != nil {
		s.rejected.Inc()
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	key := windowKey{principal: principal, userID: ev.UserID}
	u, ok := s.users.Get(key)
	if !ok {
		u = &userWindow{}
		if old, evicted := s.users.Put(key, u, true); evicted {
			// The evicted window leaves with its events and its sum; the
			// new one reuses its event buffer. A tick counting outside
			// the lock may still hold old, so old lets go of the buffer.
			s.events -= len(old.events)
			s.usersEvicted.Inc()
			clear(old.events)
			u.events = old.events[:0]
			*old = userWindow{}
		}
	}
	s.pruneUserLocked(u, now)
	if ev.ID != "" {
		if u.seen[ev.ID] {
			s.deduped.Inc()
			return ErrDuplicateEvent
		}
		if u.seen == nil {
			u.seen = make(map[string]bool)
		}
		u.seen[ev.ID] = true
	}
	if len(u.events) >= s.cfg.MaxPerUser {
		// Drop-oldest: the window sheds rather than buffers a chatty
		// user.
		drop := len(u.events) - s.cfg.MaxPerUser + 1
		for i := range u.events[:drop] {
			s.removeLocked(u, &u.events[i])
			s.dropped.Inc()
		}
		n := copy(u.events, u.events[drop:])
		clear(u.events[n:])
		u.events = u.events[:n]
	}
	u.events = append(u.events, winEvent{loc: ev.Loc(), ts: ev.TS.UnixNano(), seq: s.seq, id: ev.ID})
	s.seq++
	s.events++
	s.accepted.Inc()
	return nil
}

// pruneUserLocked removes the user's events that have fallen out of the
// window ending at now, preserving arrival order.
func (s *Store) pruneUserLocked(u *userWindow, now time.Time) {
	cutoff := now.Add(-s.cfg.Window).UnixNano()
	kept := u.events[:0]
	for i := range u.events {
		if u.events[i].ts > cutoff {
			kept = append(kept, u.events[i])
		} else {
			s.removeLocked(u, &u.events[i])
		}
	}
	clear(u.events[len(kept):])
	u.events = kept
}

// removeLocked accounts for e leaving u's window: it releases e's dedup
// id and subtracts e's vector from the sum when e was counted.
func (s *Store) removeLocked(u *userWindow, e *winEvent) {
	if e.id != "" {
		delete(u.seen, e.id)
	}
	if e.vec != "" {
		addPacked(u.sum, e.vec, -1)
		u.counted--
		if u.counted == 0 {
			u.sum = nil
		}
	}
	s.events--
}

// UserWindow is one user's live contribution to the current window, as
// seen by the releaser.
type UserWindow struct {
	UserID    string
	Principal string
	// Events is how many window events Sum counts.
	Events int
	// Sum is the sum of those events' frequency vectors, a copy the
	// caller owns.
	Sum poi.FreqVector
}

// pendingEvent is an event ActiveAt counts outside the store lock.
type pendingEvent struct {
	u   *userWindow
	seq uint64
	loc geo.Point
	vec string
}

// ActiveAt prunes every window to (now-Window, now], counts the events
// no earlier call counted, and returns the users with at least one
// counted event, sorted by (user id, principal) so downstream
// aggregation is deterministic. Users whose windows pruned empty stay
// registered: only an eviction removes a user.
//
// It takes the store lock twice. The first time it prunes and lists
// the uncounted events; it counts them with the lock released, so
// ingestion never waits for a count; the second time it adds each
// vector to its event and its user's sum, then copies the sums. An
// event removed in between is skipped by its arrival number, and one
// that arrived in between waits for the next call. Nothing it
// allocates outlives the call but the packed vectors.
func (s *Store) ActiveAt(now time.Time) []UserWindow {
	s.mu.Lock()
	pending := s.uncountedLocked(now)
	s.mu.Unlock()

	scratch := poi.NewFreqVector(s.cfg.City.M())
	var buf []byte
	for i := range pending {
		s.count(scratch, pending[i].loc)
		buf = packVec(buf[:0], scratch)
		pending[i].vec = string(buf)
	}

	s.mu.Lock()
	s.foldLocked(pending)
	out := s.sumsLocked()
	s.mu.Unlock()

	sort.Slice(out, func(i, j int) bool {
		if out[i].UserID != out[j].UserID {
			return out[i].UserID < out[j].UserID
		}
		return out[i].Principal < out[j].Principal
	})
	return out
}

// uncountedLocked prunes every window to (now-Window, now] and lists
// the events not yet counted, each user's together in arrival order.
func (s *Store) uncountedLocked(now time.Time) []pendingEvent {
	var pending []pendingEvent
	for _, u := range s.users.All() {
		s.pruneUserLocked(u, now)
		for _, e := range u.events {
			if e.vec == "" {
				pending = append(pending, pendingEvent{u: u, seq: e.seq, loc: e.loc})
			}
		}
	}
	return pending
}

// foldLocked stores each counted vector in its event and adds it to the
// user's sum. A user's pending events and its window are both in
// arrival order, so one forward walk matches them; an event that left
// the window meanwhile has no match and is skipped.
func (s *Store) foldLocked(pending []pendingEvent) {
	for i := 0; i < len(pending); {
		u, j := pending[i].u, 0
		for ; i < len(pending) && pending[i].u == u; i++ {
			p := &pending[i]
			for j < len(u.events) && u.events[j].seq < p.seq {
				j++
			}
			if j == len(u.events) || u.events[j].seq != p.seq || u.events[j].vec != "" {
				continue
			}
			u.events[j].vec = p.vec
			if u.sum == nil {
				u.sum = make([]int32, s.cfg.City.M())
			}
			addPacked(u.sum, p.vec, 1)
			u.counted++
		}
	}
}

// sumsLocked copies the sum of every user with a counted event.
func (s *Store) sumsLocked() []UserWindow {
	n := 0
	for _, u := range s.users.All() {
		if u.counted > 0 {
			n++
		}
	}
	m := s.cfg.City.M()
	out := make([]UserWindow, 0, n)
	sums := make([]int, n*m) // one allocation for every copy
	for k, u := range s.users.All() {
		if u.counted == 0 {
			continue
		}
		sum := sums[:m:m]
		sums = sums[m:]
		for t, v := range u.sum {
			sum[t] = int(v)
		}
		out = append(out, UserWindow{UserID: k.userID, Principal: k.principal, Events: u.counted, Sum: sum})
	}
	return out
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	ActiveUsers  int
	WindowEvents int
	Accepted     uint64
	Rejected     uint64
	Deduped      uint64
	Dropped      uint64
	UsersEvicted uint64
}

// Stats snapshots the store's gauges and counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	users, events := s.users.Len(), s.events
	s.mu.Unlock()
	return Stats{
		ActiveUsers:  users,
		WindowEvents: events,
		Accepted:     s.accepted.Value(),
		Rejected:     s.rejected.Value(),
		Deduped:      s.deduped.Value(),
		Dropped:      s.dropped.Value(),
		UsersEvicted: s.usersEvicted.Value(),
	}
}

// Metric names exported by the store.
const (
	MetricActiveUsers    = "stream.active_users"
	MetricWindowEvents   = "stream.window_events"
	MetricEventsAccepted = "stream.events_accepted"
	MetricEventsRejected = "stream.events_rejected"
	MetricEventsDeduped  = "stream.events_deduped"
	MetricEventsDropped  = "stream.events_dropped"
	MetricUsersEvicted   = "stream.users_evicted"
)

// ExportMetrics publishes the store's gauges and counters on reg.
func (s *Store) ExportMetrics(reg *obs.Registry) {
	reg.CounterFunc(MetricActiveUsers, func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(s.users.Len())
	})
	reg.CounterFunc(MetricWindowEvents, func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(s.events)
	})
	reg.CounterFunc(MetricEventsAccepted, s.accepted.Value)
	reg.CounterFunc(MetricEventsRejected, s.rejected.Value)
	reg.CounterFunc(MetricEventsDeduped, s.deduped.Value)
	reg.CounterFunc(MetricEventsDropped, s.dropped.Value)
	reg.CounterFunc(MetricUsersEvicted, s.usersEvicted.Value)
}
