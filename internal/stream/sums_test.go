package stream

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"poiagg/internal/defense"
	"poiagg/internal/geo"
	"poiagg/internal/gsp"
	"poiagg/internal/poi"
	"poiagg/internal/rng"
)

// refStream is the reference twin of the store and releaser as they
// were before window sums: the store keeps each window's locations, and
// every tick counts every live event again with FreqInto. It also
// marks the events a tick has counted, so the test can tell which paths
// removed a counted event.
type refStream struct {
	cfg   Config
	svc   *gsp.Service
	mech  *defense.DPRelease
	src   *rng.Source
	ticks uint64
	users map[windowKey]*refWindow
	userQ []windowKey

	// Events a tick counted for the first time, and counted events (or
	// windows holding some) that each path removed.
	folded, pruned, dropped, evicted int
}

type refWindow struct {
	events  []refEvent
	seen    map[string]bool
	touched bool
}

type refEvent struct {
	loc     geo.Point
	ts      time.Time
	id      string
	counted bool
}

func newRefStream(cfg Config, mech *defense.DPRelease, seed uint64) *refStream {
	return &refStream{
		cfg:   cfg,
		svc:   gsp.NewService(cfg.City, 1<<10),
		mech:  mech,
		src:   rng.New(seed),
		users: make(map[windowKey]*refWindow),
	}
}

func (r *refStream) apply(ev Event, principal string, now time.Time) error {
	if err := ev.Validate(now, r.cfg.Window, r.cfg.City.Bounds); err != nil {
		return err
	}
	key := windowKey{principal: principal, userID: ev.UserID}
	u := r.users[key]
	if u == nil {
		r.shed()
		u = &refWindow{}
		r.users[key] = u
		r.userQ = append(r.userQ, key)
	}
	u.touched = true
	r.prune(u, now)
	if ev.ID != "" {
		if u.seen[ev.ID] {
			return ErrDuplicateEvent
		}
		if u.seen == nil {
			u.seen = make(map[string]bool)
		}
		u.seen[ev.ID] = true
	}
	if len(u.events) >= r.cfg.MaxPerUser {
		drop := len(u.events) - r.cfg.MaxPerUser + 1
		for _, e := range u.events[:drop] {
			if e.id != "" {
				delete(u.seen, e.id)
			}
			if e.counted {
				r.dropped++
			}
		}
		u.events = append(u.events[:0], u.events[drop:]...)
	}
	u.events = append(u.events, refEvent{loc: ev.Loc(), ts: ev.TS, id: ev.ID})
	return nil
}

func (r *refStream) shed() {
	for len(r.users) >= r.cfg.MaxUsers && len(r.userQ) > 0 {
		oldest := r.userQ[0]
		r.userQ = r.userQ[1:]
		u := r.users[oldest]
		if u.touched {
			u.touched = false
			r.userQ = append(r.userQ, oldest)
			continue
		}
		for _, e := range u.events {
			if e.counted {
				r.evicted++
				break
			}
		}
		delete(r.users, oldest)
	}
}

func (r *refStream) prune(u *refWindow, now time.Time) {
	cutoff := now.Add(-r.cfg.Window)
	kept := u.events[:0]
	for _, e := range u.events {
		if e.ts.After(cutoff) {
			kept = append(kept, e)
			continue
		}
		if e.id != "" {
			delete(u.seen, e.id)
		}
		if e.counted {
			r.pruned++
		}
	}
	u.events = kept
}

// tick is the releaser's tick without a ledger: every active user's
// vector is the sum of FreqInto over its window's locations.
func (r *refStream) tick(now time.Time) (WindowRelease, error) {
	type active struct {
		key  windowKey
		locs []geo.Point
	}
	var act []active
	for k, u := range r.users {
		r.prune(u, now)
		if len(u.events) == 0 {
			continue
		}
		a := active{key: k}
		for i := range u.events {
			a.locs = append(a.locs, u.events[i].loc)
			if !u.events[i].counted {
				u.events[i].counted = true
				r.folded++
			}
		}
		act = append(act, a)
	}
	sort.Slice(act, func(i, j int) bool {
		if act[i].key.userID != act[j].key.userID {
			return act[i].key.userID < act[j].key.userID
		}
		return act[i].key.principal < act[j].key.principal
	})
	rel := WindowRelease{Tick: r.ticks, Time: now.UTC()}
	m := r.cfg.City.M()
	scratch := poi.NewFreqVector(m)
	var vecs []poi.FreqVector
	for _, a := range act {
		vec := poi.NewFreqVector(m)
		for _, loc := range a.locs {
			r.svc.FreqInto(scratch, loc, r.cfg.Radius)
			for i, v := range scratch {
				vec[i] += v
			}
		}
		vecs = append(vecs, vec)
		rel.Users++
		rel.Events += len(a.locs)
	}
	if len(vecs) > 0 {
		freq, err := r.mech.ReleaseVectors(r.src.Split(r.ticks), vecs)
		if err != nil {
			return WindowRelease{}, err
		}
		rel.Freq = freq
	}
	r.ticks++
	return rel, nil
}

// checkSums requires every window's running sum to equal a from-scratch
// uncached count of its counted events, and its counted number to match.
// With all, every live event must be counted.
func checkSums(t *testing.T, st *Store, all bool) {
	t.Helper()
	svc := gsp.NewService(st.cfg.City, 0)
	m := st.cfg.City.M()
	st.mu.Lock()
	defer st.mu.Unlock()
	total := 0
	for k, u := range st.users {
		total += len(u.events)
		want := make([]int32, m)
		counted := 0
		for _, e := range u.events {
			if e.vec == "" {
				if all {
					t.Errorf("%v: event %d is live but uncounted after a tick", k, e.seq)
				}
				continue
			}
			counted++
			for i, c := range svc.Freq(e.loc, st.cfg.Radius) {
				want[i] += int32(c)
			}
		}
		if u.counted != counted {
			t.Errorf("%v: counted = %d, want %d", k, u.counted, counted)
		}
		if counted == 0 {
			if u.sum != nil {
				t.Errorf("%v: no counted event but sum %v", k, u.sum)
			}
			continue
		}
		if !reflect.DeepEqual(u.sum, want) {
			t.Errorf("%v: running sum %v, from scratch %v", k, u.sum, want)
		}
	}
	if st.events != total {
		t.Errorf("window_events = %d, want %d live events", st.events, total)
	}
}

// TestWindowSumsMatchReference drives the store and releaser and the
// reference twin with the same random sequences of applies (duplicate
// ids, stale and future events, cap drops, user evictions), clock
// advances and ticks. After every tick each window's running sum must
// equal a from-scratch count of its live events, and the release must
// equal the twin's bit for bit. The keys are few and the caps small, so
// every path that changes a sum runs on counted events: the twin
// counts how often.
func TestWindowSumsMatchReference(t *testing.T) {
	city, _, mech := fixture(t)
	locs := city.RandomLocations(40, 4242)
	var folded, pruned, dropped, evicted, ticks int
	var deduped, rejected uint64
	for seed := uint64(1); seed <= 20; seed++ {
		clock := NewManualClock(baseTime)
		cfg := Config{
			Window:     2 * time.Minute,
			MaxUsers:   4,
			MaxPerUser: 3,
			Clock:      clock.Now,
			City:       city.City,
			Radius:     900,
		}
		st, err := NewStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := NewReleaser(st, mech, nil, ReleaserConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefStream(st.Config(), mech, seed)
		rnd := rand.New(rand.NewPCG(seed, 99))
		for op := 0; op < 300; op++ {
			now := clock.Now()
			switch p := rnd.IntN(10); {
			case p < 6:
				principal := []string{"acme", "globex"}[rnd.IntN(2)]
				l := locs[rnd.IntN(len(locs))]
				ev := Event{
					UserID: fmt.Sprintf("u%d", rnd.IntN(3)),
					X:      l.X, Y: l.Y,
					TS: now.Add(time.Duration(rnd.IntN(160)-140) * time.Second),
				}
				if rnd.IntN(3) == 0 {
					ev.ID = fmt.Sprintf("id-%d", rnd.IntN(4))
				}
				got, want := st.Apply(ev, principal), ref.apply(ev, principal, now)
				if (got == nil) != (want == nil) {
					t.Fatalf("seed %d op %d: Apply = %v, reference %v", seed, op, got, want)
				}
			case p < 8:
				clock.Advance(time.Duration(rnd.IntN(40)) * time.Second)
			default:
				got, err := rel.Tick(now)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.tick(now)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: release differs from the reference:\n got  %+v\n want %+v", seed, op, got, want)
				}
				checkSums(t, st, true)
				if t.Failed() {
					t.Fatalf("seed %d op %d: window sums diverged", seed, op)
				}
				ticks++
			}
		}
		folded += ref.folded
		pruned += ref.pruned
		dropped += ref.dropped
		evicted += ref.evicted
		s := st.Stats()
		deduped += s.Deduped
		rejected += s.Rejected
	}
	t.Logf("%d ticks; counted events: %d folded, %d pruned, %d dropped; %d windows evicted with counted events; %d deduped, %d rejected",
		ticks, folded, pruned, dropped, evicted, deduped, rejected)
	for name, n := range map[string]int{"fold": folded, "prune": pruned, "drop": dropped, "evict": evicted, "tick": ticks} {
		if n == 0 {
			t.Errorf("no %s of a counted event ran; the test no longer covers that path", name)
		}
	}
	if deduped == 0 || rejected == 0 {
		t.Errorf("deduped %d, rejected %d: want both nonzero", deduped, rejected)
	}
}

// TestTickSkipsEventsRemovedMidCount removes listed events while a tick
// counts them: a cap drop, a prune and an eviction whose window is
// reused for a new user. The tick must fold only the events still
// live, leave every later arrival for the next tick, and keep each sum
// equal to its counted events.
func TestTickSkipsEventsRemovedMidCount(t *testing.T) {
	_, _, mech := fixture(t)
	st, clock := testStore(t, 3, 2, 2*time.Minute)
	rel, err := NewReleaser(st, mech, nil, ReleaserConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t0 := clock.Now()
	apply := func(user string, seed int, ts time.Time) {
		t.Helper()
		if err := st.Apply(eventAt(t, user, seed, ts), "acme"); err != nil {
			t.Fatal(err)
		}
	}
	apply("a", 1, t0)
	apply("a", 2, t0)
	apply("b", 3, t0.Add(-100*time.Second))
	apply("c", 4, t0)

	count := st.count
	var once sync.Once
	st.count = func(out poi.FreqVector, l geo.Point) {
		once.Do(func() {
			apply("a", 5, t0) // drops a's oldest listed event
			clock.Set(t0.Add(30 * time.Second))
			apply("b", 6, clock.Now()) // prunes b's listed event
			apply("d", 7, clock.Now()) // evicts a window, reused for d
		})
		count(out, l)
	}
	wr, err := rel.Tick(t0)
	if err != nil {
		t.Fatal(err)
	}
	st.count = count
	if s := st.Stats(); s.Dropped != 1 || s.UsersEvicted != 1 {
		t.Fatalf("mid-count applies: %+v, want 1 drop and 1 eviction", s)
	}
	checkSums(t, st, false)
	// Of the four listed events only c's survived: a's were dropped or
	// evicted, b's pruned, and the events that arrived mid-count wait.
	if wr.Users != 1 || wr.Events != 1 {
		t.Fatalf("tick counted %d users / %d events, want c's 1/1", wr.Users, wr.Events)
	}
	wr, err = rel.Tick(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	checkSums(t, st, true)
	if s := st.Stats(); wr.Events != s.WindowEvents || wr.Users != s.ActiveUsers {
		t.Fatalf("next tick counted %d users / %d events, want all live: %+v", wr.Users, wr.Events, s)
	}
}

// TestTickCountsOutsideStoreLock parks a tick inside its count of a new
// event: ingestion must not wait for it.
func TestTickCountsOutsideStoreLock(t *testing.T) {
	rg := newRig(t, 3, nil)
	rg.feed(t, 2)
	count := rg.st.count
	parked, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	rg.st.count = func(out poi.FreqVector, l geo.Point) {
		once.Do(func() {
			close(parked)
			<-resume
		})
		count(out, l)
	}
	tickErr := make(chan error, 1)
	go func() {
		_, err := rg.rel.Tick(baseTime.Add(time.Minute))
		tickErr <- err
	}()
	<-parked
	applied := make(chan error, 1)
	go func() { applied <- rg.st.Apply(eventAt(t, "late", 1, baseTime), "acme") }()
	select {
	case err := <-applied:
		if err != nil {
			t.Errorf("Apply during a parked count: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("Apply still waits for a tick's parked count after 2s")
	}
	close(resume)
	if err := <-tickErr; err != nil {
		t.Fatal(err)
	}
}
