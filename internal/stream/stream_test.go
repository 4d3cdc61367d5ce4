package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/citygen"
	"poiagg/internal/cloak"
	"poiagg/internal/defense"
	"poiagg/internal/gsp"
	"poiagg/internal/obs"
	"poiagg/internal/poi"
)

var (
	fixOnce sync.Once
	fixCity *citygen.City
	fixSvc  *gsp.Service
	fixMech *defense.DPRelease
)

func fixture(t testing.TB) (*citygen.City, *gsp.Service, *defense.DPRelease) {
	t.Helper()
	fixOnce.Do(func() {
		p := citygen.Beijing(41)
		p.NumPOIs = 1200
		p.NumTypes = 40
		p.Width, p.Height = 8_000, 8_000
		p.NumDistricts = 16
		city, err := citygen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		fixCity = city
		fixSvc = gsp.NewService(city.City, 1<<14)
		pop := cloak.UniformPopulation(city.Bounds, 2_000, 42)
		mech, err := defense.NewDPRelease(fixSvc, pop, defense.DefaultDPReleaseConfig())
		if err != nil {
			t.Fatal(err)
		}
		fixMech = mech
	})
	return fixCity, fixSvc, fixMech
}

var baseTime = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// testStore builds a store over the fixture city with a manual clock.
func testStore(t testing.TB, maxUsers, maxPerUser int, window time.Duration) (*Store, *ManualClock) {
	t.Helper()
	city, _, _ := fixture(t)
	clock := NewManualClock(baseTime)
	st, err := NewStore(Config{
		Window:     window,
		MaxUsers:   maxUsers,
		MaxPerUser: maxPerUser,
		Clock:      clock.Now,
		City:       city.City,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, clock
}

// windowSum is the sum of the events' frequency vectors at st's radius,
// counted from scratch without a cache.
func windowSum(st *Store, evs ...Event) poi.FreqVector {
	svc := gsp.NewService(st.cfg.City, 0)
	sum := poi.NewFreqVector(st.cfg.City.M())
	for _, ev := range evs {
		for t, c := range svc.Freq(ev.Loc(), st.cfg.Radius) {
			sum[t] += c
		}
	}
	return sum
}

// eventAt builds a valid in-bounds event for the fixture city.
func eventAt(t testing.TB, user string, seed int, ts time.Time) Event {
	t.Helper()
	city, _, _ := fixture(t)
	l := city.RandomLocations(1, uint64(seed)+7000)[0]
	return Event{UserID: user, X: l.X, Y: l.Y, TS: ts}
}

func TestEventValidate(t *testing.T) {
	city, _, _ := fixture(t)
	now := baseTime
	const window = 5 * time.Minute
	ok := eventAt(t, "u1", 1, now)
	for _, tc := range []struct {
		name string
		mut  func(Event) Event
		want error
	}{
		{"valid", func(e Event) Event { return e }, nil},
		{"no user", func(e Event) Event { e.UserID = ""; return e }, ErrNoUser},
		{"long user", func(e Event) Event { e.UserID = string(make([]byte, MaxUserIDLen+1)); return e }, ErrUserTooLong},
		{"nan x", func(e Event) Event { e.X = math.NaN(); return e }, ErrBadLocation},
		{"out of bounds", func(e Event) Event { e.X = city.Bounds.MaxX + 1e6; return e }, ErrBadLocation},
		{"zero ts", func(e Event) Event { e.TS = time.Time{}; return e }, ErrNoTimestamp},
		{"stale", func(e Event) Event { e.TS = now.Add(-window); return e }, ErrStaleEvent},
		{"barely fresh", func(e Event) Event { e.TS = now.Add(-window + time.Second); return e }, nil},
		{"future", func(e Event) Event { e.TS = now.Add(FutureSkew + time.Second); return e }, ErrFutureEvent},
		{"skewed ok", func(e Event) Event { e.TS = now.Add(FutureSkew); return e }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.mut(ok).Validate(now, window, city.Bounds)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestStoreRejectsCountedAtDoor(t *testing.T) {
	st, clock := testStore(t, 10, 4, 5*time.Minute)
	err := st.Apply(eventAt(t, "u1", 1, clock.Now().Add(-time.Hour)), "acme")
	if !errors.Is(err, ErrStaleEvent) {
		t.Fatalf("Apply stale = %v", err)
	}
	s := st.Stats()
	if s.Rejected != 1 || s.Accepted != 0 || s.WindowEvents != 0 || s.ActiveUsers != 0 {
		t.Errorf("stats after rejected event: %+v", s)
	}
}

// TestStoreFloodBounded is the memory-bound proof at package level: 10×
// the user cap of distinct users floods the store, yet live state never
// exceeds MaxUsers users / MaxUsers×MaxPerUser events — the excess is
// shed (evicted or dropped), not buffered.
func TestStoreFloodBounded(t *testing.T) {
	const maxUsers, maxPerUser = 40, 4
	st, clock := testStore(t, maxUsers, maxPerUser, 5*time.Minute)
	now := clock.Now()
	total := 0
	for i := 0; i < 10*maxUsers; i++ {
		user := fmt.Sprintf("flood-%04d", i)
		for j := 0; j < maxPerUser+2; j++ {
			if err := st.Apply(eventAt(t, user, i*100+j, now), "acme"); err != nil {
				t.Fatalf("Apply %s/%d: %v", user, j, err)
			}
			total++
		}
		if s := st.Stats(); s.ActiveUsers > maxUsers || s.WindowEvents > maxUsers*maxPerUser {
			t.Fatalf("bound violated mid-flood: %+v", s)
		}
	}
	s := st.Stats()
	if s.ActiveUsers > maxUsers {
		t.Errorf("ActiveUsers = %d > cap %d", s.ActiveUsers, maxUsers)
	}
	if s.WindowEvents > maxUsers*maxPerUser {
		t.Errorf("WindowEvents = %d > bound %d", s.WindowEvents, maxUsers*maxPerUser)
	}
	if s.Accepted != uint64(total) {
		t.Errorf("Accepted = %d, want %d", s.Accepted, total)
	}
	if s.UsersEvicted < uint64(9*maxUsers) {
		t.Errorf("UsersEvicted = %d, want ≥ %d", s.UsersEvicted, 9*maxUsers)
	}
	if s.Dropped == 0 {
		t.Error("per-user cap never dropped despite maxPerUser+2 events per user")
	}
}

func TestStorePerUserCapDropsOldest(t *testing.T) {
	const capN = 5
	st, clock := testStore(t, 10, capN, 10*time.Minute)
	now := clock.Now()
	var evs []Event
	for j := 0; j < capN+3; j++ {
		ev := eventAt(t, "chatty", j, now.Add(time.Duration(j)*time.Second))
		evs = append(evs, ev)
		if err := st.Apply(ev, "acme"); err != nil {
			t.Fatal(err)
		}
	}
	aw := st.ActiveAt(now.Add(time.Minute))
	if len(aw) != 1 || aw[0].Events != capN {
		t.Fatalf("window = %d users / %d events, want 1/%d", len(aw), aw[0].Events, capN)
	}
	// The survivors must be the most recent cap events.
	if want := windowSum(st, evs[len(evs)-capN:]...); !reflect.DeepEqual(aw[0].Sum, want) {
		t.Errorf("window sum %v, want the last %d events' %v", aw[0].Sum, capN, want)
	}
	if s := st.Stats(); s.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", s.Dropped)
	}
}

// TestEvictedUserFreshWindow covers the satellite: a user shed by the
// second-chance cap who re-appears mid-window must start from an empty
// window — their pre-eviction events must not resurrect.
func TestEvictedUserFreshWindow(t *testing.T) {
	const maxUsers = 8
	st, clock := testStore(t, maxUsers, 16, 10*time.Minute)
	now := clock.Now()
	for j := 0; j < 5; j++ {
		if err := st.Apply(eventAt(t, "victim", j, now.Add(time.Duration(j)*time.Second)), "acme"); err != nil {
			t.Fatal(err)
		}
	}
	// Flood enough distinct users to clear the victim's second-chance
	// bit and then evict it (2× the cap guarantees two full passes).
	for i := 0; i < 2*maxUsers; i++ {
		if err := st.Apply(eventAt(t, fmt.Sprintf("noise-%03d", i), 1000+i, now), "acme"); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Stats(); s.UsersEvicted == 0 {
		t.Fatal("flood evicted nobody; test premise broken")
	}
	for _, u := range st.ActiveAt(now.Add(time.Second)) {
		if u.UserID == "victim" {
			t.Fatal("victim survived the flood; test premise broken")
		}
	}
	// The victim returns mid-window with one fresh event.
	fresh := eventAt(t, "victim", 99, now.Add(2*time.Minute))
	clock.Set(now.Add(2 * time.Minute))
	if err := st.Apply(fresh, "acme"); err != nil {
		t.Fatal(err)
	}
	for _, u := range st.ActiveAt(now.Add(2 * time.Minute)) {
		if u.UserID != "victim" {
			continue
		}
		if u.Events != 1 {
			t.Fatalf("re-appeared victim has %d window events, want exactly 1 (stale events resurrected)", u.Events)
		}
		if want := windowSum(st, fresh); !reflect.DeepEqual(u.Sum, want) {
			t.Fatalf("victim's window sums to %v, want the fresh event's %v", u.Sum, want)
		}
		return
	}
	t.Fatal("re-appeared victim missing from the window")
}

// TestStoreEvictionIsTenantFair: one principal's flood of fresh users
// must evict its own windows, not another principal's. Bob streams one
// event, alice streams for 20 users against a cap of 8, and bob's
// window must still be live.
func TestStoreEvictionIsTenantFair(t *testing.T) {
	const maxUsers = 8
	st, clock := testStore(t, maxUsers, 4, 10*time.Minute)
	now := clock.Now()
	if err := st.Apply(eventAt(t, "bob-user", 0, now), "bob"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := st.Apply(eventAt(t, fmt.Sprintf("alice-%d", i), 1+i, now), "alice"); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Stats(); s.UsersEvicted == 0 || s.ActiveUsers > maxUsers {
		t.Fatalf("after the flood: %+v, want evictions and at most %d users", s, maxUsers)
	}
	for _, u := range st.ActiveAt(now) {
		if u.Principal == "bob" {
			return
		}
	}
	t.Error("alice's flood evicted bob's window")
}

// TestCrossPrincipalUserWindowsIsolated pins the window keying: a
// tenant streaming a userId another tenant already uses gets its own
// window — it cannot re-attribute the other tenant's buffered events to
// its principal (and thus its budget), and neither tenant's events leak
// into the other's aggregate contribution.
func TestCrossPrincipalUserWindowsIsolated(t *testing.T) {
	st, clock := testStore(t, 10, 8, 10*time.Minute)
	now := clock.Now()
	var acme []Event
	for j := 0; j < 2; j++ {
		ev := eventAt(t, "ada", j, now.Add(time.Duration(j)*time.Second))
		acme = append(acme, ev)
		if err := st.Apply(ev, "acme"); err != nil {
			t.Fatal(err)
		}
	}
	// The hijack attempt from the review: one event under the same
	// userId from a different principal.
	globex := eventAt(t, "ada", 9, now.Add(3*time.Second))
	if err := st.Apply(globex, "globex"); err != nil {
		t.Fatal(err)
	}
	aw := st.ActiveAt(now.Add(time.Minute))
	if len(aw) != 2 {
		t.Fatalf("windows = %d, want 2 separate (principal, user) windows: %+v", len(aw), aw)
	}
	// Sorted by (user, principal): acme first.
	if aw[0].Principal != "acme" || aw[0].Events != 2 || !reflect.DeepEqual(aw[0].Sum, windowSum(st, acme...)) {
		t.Errorf("acme window: %+v", aw[0])
	}
	if aw[1].Principal != "globex" || aw[1].Events != 1 || !reflect.DeepEqual(aw[1].Sum, windowSum(st, globex)) {
		t.Errorf("globex window: %+v", aw[1])
	}
	for _, u := range aw {
		if u.UserID != "ada" {
			t.Errorf("window user = %q, want ada", u.UserID)
		}
	}
}

// TestStoreDedupByID pins at-least-once dedup: a replayed event id
// still live in the window is applied once; ids die with their events
// (window expiry and drop-oldest both free them).
func TestStoreDedupByID(t *testing.T) {
	st, clock := testStore(t, 10, 2, 2*time.Minute)
	now := clock.Now()
	ev := eventAt(t, "u1", 1, now)
	ev.ID = "batch-1/0"
	if err := st.Apply(ev, "acme"); err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(ev, "acme"); !errors.Is(err, ErrDuplicateEvent) {
		t.Fatalf("replayed id = %v, want ErrDuplicateEvent", err)
	}
	s := st.Stats()
	if s.Accepted != 1 || s.Deduped != 1 || s.WindowEvents != 1 {
		t.Fatalf("stats after replay: %+v", s)
	}
	// The same id under a different principal is a different window: no
	// cross-tenant dedup oracle.
	if err := st.Apply(ev, "globex"); err != nil {
		t.Fatalf("same id, other principal: %v", err)
	}
	// Drop-oldest frees the dropped event's id for re-admission.
	for j := 0; j < 2; j++ {
		e := eventAt(t, "u1", 10+j, now.Add(time.Duration(j+1)*time.Second))
		e.ID = fmt.Sprintf("batch-2/%d", j)
		if err := st.Apply(e, "acme"); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Apply(ev, "acme"); err != nil {
		t.Fatalf("id of dropped event should be admissible again: %v", err)
	}
	// Window expiry frees ids too.
	clock.Set(now.Add(3 * time.Minute))
	late := eventAt(t, "u2", 30, now.Add(3*time.Minute))
	late.ID = "late"
	if err := st.Apply(late, "acme"); err != nil {
		t.Fatal(err)
	}
	clock.Set(now.Add(6 * time.Minute))
	late2 := eventAt(t, "u2", 31, now.Add(6*time.Minute))
	late2.ID = "late"
	if err := st.Apply(late2, "acme"); err != nil {
		t.Fatalf("id of expired event should be admissible again: %v", err)
	}
}

func TestStorePrunesExpiredWindows(t *testing.T) {
	st, clock := testStore(t, 10, 8, 2*time.Minute)
	now := clock.Now()
	for j := 0; j < 3; j++ {
		if err := st.Apply(eventAt(t, "u1", j, now), "acme"); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.ActiveAt(now); len(got) != 1 {
		t.Fatalf("active before expiry = %d users", len(got))
	}
	later := now.Add(3 * time.Minute)
	if got := st.ActiveAt(later); len(got) != 0 {
		t.Fatalf("active after expiry = %d users, want 0", len(got))
	}
	s := st.Stats()
	if s.WindowEvents != 0 {
		t.Errorf("WindowEvents = %d after expiry", s.WindowEvents)
	}
	// The user stays registered (map/queue 1:1); only shedding removes.
	if s.ActiveUsers != 1 {
		t.Errorf("registered users = %d, want 1", s.ActiveUsers)
	}
}

// streamRig is a full store+releaser+ledger stack over the fixture city
// with one shared manual clock.
type streamRig struct {
	st    *Store
	rel   *Releaser
	led   *budget.Ledger
	clock *ManualClock
}

func newRig(t testing.TB, seed uint64, pol *budget.Policy) *streamRig {
	t.Helper()
	city, _, mech := fixture(t)
	clock := NewManualClock(baseTime)
	st, err := NewStore(Config{
		Window:   4 * time.Minute,
		MaxUsers: 64,
		Clock:    clock.Now,
		City:     city.City,
		Radius:   900,
	})
	if err != nil {
		t.Fatal(err)
	}
	var led *budget.Ledger
	if pol != nil {
		led, err = budget.New(*pol, budget.WithClock(clock.Now))
		if err != nil {
			t.Fatal(err)
		}
	}
	rel, err := NewReleaser(st, mech, led, ReleaserConfig{
		Seed:  seed,
		Eps:   0.5,
		Delta: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &streamRig{st: st, rel: rel, led: led, clock: clock}
}

// feed applies a deterministic little workload: n users under two
// principals, two events each.
func (rg *streamRig) feed(t testing.TB, n int) {
	t.Helper()
	now := rg.clock.Now()
	for i := 0; i < n; i++ {
		p := "acme"
		if i%2 == 1 {
			p = "globex"
		}
		user := fmt.Sprintf("user-%03d", i)
		for j := 0; j < 2; j++ {
			if err := rg.st.Apply(eventAt(t, user, i*10+j, now.Add(time.Duration(j)*time.Second)), p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTickDeterministic(t *testing.T) {
	a, b := newRig(t, 77, nil), newRig(t, 77, nil)
	a.feed(t, 9)
	b.feed(t, 9)
	tick := baseTime.Add(time.Minute)
	ra, err := a.rel.Tick(tick)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.rel.Tick(tick)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("same seed, same events, different releases:\n a %+v\n b %+v", ra, rb)
	}
	if ra.Users != 9 || ra.Events != 18 {
		t.Errorf("release counted %d users / %d events, want 9/18", ra.Users, ra.Events)
	}
	c := newRig(t, 78, nil)
	c.feed(t, 9)
	rc, err := c.rel.Tick(tick)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ra.Freq, rc.Freq) {
		t.Error("different seeds produced identical noise")
	}
}

func TestTickEmptyWindow(t *testing.T) {
	rg := newRig(t, 5, nil)
	rel, err := rg.rel.Tick(baseTime.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Users != 0 || len(rel.Freq) != 0 {
		t.Errorf("empty-window release: %+v", rel)
	}
	if got := rg.rel.History(0); len(got) != 1 || got[0].Tick != 0 {
		t.Errorf("history after empty tick: %+v", got)
	}
}

func TestTickChargesBudgetAndDenies(t *testing.T) {
	// Lifetime budget allows exactly one (0.5, 0.05) charge per
	// principal.
	pol := &budget.Policy{LifetimeEps: 0.6, LifetimeDelta: 0.06}
	rg := newRig(t, 9, pol)
	rg.feed(t, 6)
	r1, err := rg.rel.Tick(baseTime.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Denied) != 0 || r1.Users != 6 {
		t.Fatalf("first tick: %+v", r1)
	}
	for _, p := range []string{"acme", "globex"} {
		if d := rg.led.Status(p); d.SpentEps != 0.5 {
			t.Errorf("principal %s spent %v, want 0.5", p, d.SpentEps)
		}
	}
	// Second window: both principals exhausted → all users excluded.
	rg.clock.Set(baseTime.Add(2 * time.Minute))
	rg.feed(t, 6)
	r2, err := rg.rel.Tick(baseTime.Add(3 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r2.Denied, []string{"acme", "globex"}) {
		t.Fatalf("Denied = %v", r2.Denied)
	}
	if r2.Users != 0 || len(r2.Freq) != 0 {
		t.Fatalf("denied principals still contributed: %+v", r2)
	}
	// Denials must not have spent anything further.
	for _, p := range []string{"acme", "globex"} {
		if d := rg.led.Status(p); d.SpentEps != 0.5 {
			t.Errorf("principal %s spent %v after denial, want 0.5", p, d.SpentEps)
		}
	}
}

// TestTickRetrySkipsChargedPrincipals pins the partial-failure path: a
// Spend failure mid-loop aborts the tick after durably charging earlier
// principals, and the retried tick must skip them — one window, one
// charge per principal, even across the retry.
func TestTickRetrySkipsChargedPrincipals(t *testing.T) {
	pol := &budget.Policy{LifetimeEps: 10, LifetimeDelta: 0.5}
	rg := newRig(t, 31, pol)
	rg.feed(t, 6) // 3 users under acme, 3 under globex
	realSpend := rg.rel.spend
	failing := true
	rg.rel.spend = func(p string, eps, delta float64) (budget.Decision, error) {
		if failing && p == "globex" {
			return budget.Decision{}, errors.New("injected ledger failure")
		}
		return realSpend(p, eps, delta)
	}
	tick := baseTime.Add(time.Minute)
	if _, err := rg.rel.Tick(tick); err == nil {
		t.Fatal("Tick survived the injected Spend failure")
	}
	// acme (sorted first) was charged durably before the failure.
	if d := rg.led.Status("acme"); d.SpentEps != 0.5 {
		t.Fatalf("acme spent %v after failed tick, want 0.5", d.SpentEps)
	}
	if got := rg.rel.Ticks(); got != 0 {
		t.Fatalf("failed tick advanced the counter to %d", got)
	}
	failing = false
	wr, err := rg.rel.Tick(tick)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Users != 6 || len(wr.Denied) != 0 {
		t.Fatalf("retried tick release: %+v", wr)
	}
	for _, p := range []string{"acme", "globex"} {
		d := rg.led.Status(p)
		if d.SpentEps != 0.5 || d.Releases != 1 {
			t.Errorf("principal %s: spent %v over %d releases, want 0.5 over 1 (double-charged on retry)", p, d.SpentEps, d.Releases)
		}
	}
	// The memo is per tick: the next window charges normally again.
	rg.clock.Set(tick.Add(time.Minute))
	rg.feed(t, 6)
	if _, err := rg.rel.Tick(tick.Add(2 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if d := rg.led.Status("acme"); d.SpentEps != 1.0 {
		t.Errorf("acme spent %v after second window, want 1.0", d.SpentEps)
	}
}

// TestTickDoesNotBlockReaders parks a tick inside its first budget
// charge and reads the releaser's published state meanwhile: History
// and a metrics snapshot, which samples Ticks, must answer without
// waiting for the tick.
func TestTickDoesNotBlockReaders(t *testing.T) {
	pol := &budget.Policy{LifetimeEps: 10, LifetimeDelta: 0.5}
	rg := newRig(t, 3, pol)
	rg.feed(t, 2)
	realSpend := rg.rel.spend
	parked, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	rg.rel.spend = func(p string, eps, delta float64) (budget.Decision, error) {
		once.Do(func() {
			close(parked)
			<-resume
		})
		return realSpend(p, eps, delta)
	}
	reg := obs.NewRegistry()
	rg.rel.ExportMetrics(reg)

	tickErr := make(chan error, 1)
	go func() {
		_, err := rg.rel.Tick(baseTime.Add(time.Minute))
		tickErr <- err
	}()
	<-parked
	read := make(chan obs.Snapshot, 1)
	go func() {
		rg.rel.History(0)
		read <- reg.Snapshot()
	}()
	select {
	case snap := <-read:
		if got := snap.Counters[MetricTicks]; got != 0 {
			t.Errorf("%s = %d while the first tick is parked, want 0", MetricTicks, got)
		}
	case <-time.After(2 * time.Second):
		t.Error("History and the metrics snapshot still wait for a parked tick after 2s")
	}
	close(resume)
	if err := <-tickErr; err != nil {
		t.Fatal(err)
	}
	if got := rg.rel.Ticks(); got != 1 {
		t.Errorf("Ticks = %d after the parked tick finished, want 1", got)
	}
}

// TestDeniedPrincipalCannotSuppressOthers pins the other half of the
// window-keying fix: a budget-exhausted tenant submitting events under
// a userId that a healthy tenant is streaming must not suppress the
// healthy tenant's window from the release.
func TestDeniedPrincipalCannotSuppressOthers(t *testing.T) {
	// One (0.5, 0.05) charge per principal, ever.
	pol := &budget.Policy{LifetimeEps: 0.6, LifetimeDelta: 0.06}
	rg := newRig(t, 17, pol)
	// Window 1: only globex is active; the tick exhausts its budget.
	if err := rg.st.Apply(eventAt(t, "gx-user", 1, baseTime), "globex"); err != nil {
		t.Fatal(err)
	}
	if _, err := rg.rel.Tick(baseTime.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	// Window 2: acme streams "ada"; exhausted globex sends one event
	// under the same userId.
	rg.clock.Set(baseTime.Add(6 * time.Minute)) // window 1 events age out (4m window)
	now := rg.clock.Now()
	for j := 0; j < 2; j++ {
		if err := rg.st.Apply(eventAt(t, "ada", 10+j, now), "acme"); err != nil {
			t.Fatal(err)
		}
	}
	if err := rg.st.Apply(eventAt(t, "ada", 20, now), "globex"); err != nil {
		t.Fatal(err)
	}
	wr, err := rg.rel.Tick(now.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wr.Denied, []string{"globex"}) {
		t.Fatalf("Denied = %v, want [globex]", wr.Denied)
	}
	// acme's ada window survives: 1 user, 2 events — globex's denial
	// only excluded globex's own single-event window.
	if wr.Users != 1 || wr.Events != 2 {
		t.Fatalf("release = %d users / %d events, want acme's 1/2 (denied tenant suppressed another tenant's window): %+v", wr.Users, wr.Events, wr)
	}
}

func TestReleaserHistoryBounded(t *testing.T) {
	city, _, mech := fixture(t)
	clock := NewManualClock(baseTime)
	st, err := NewStore(Config{MaxUsers: 8, Clock: clock.Now, City: city.City})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := NewReleaser(st, mech, nil, ReleaserConfig{History: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rel.Tick(baseTime.Add(time.Duration(i) * time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	h := rel.History(0)
	if len(h) != 3 {
		t.Fatalf("history length = %d, want 3", len(h))
	}
	for i, wr := range h {
		if wr.Tick != uint64(i+2) {
			t.Errorf("history[%d].Tick = %d, want %d", i, wr.Tick, i+2)
		}
	}
	if h2 := rel.History(2); len(h2) != 2 || h2[0].Tick != 3 {
		t.Errorf("History(2) = %+v", h2)
	}
}

func TestStartStopFinalFlush(t *testing.T) {
	rg := newRig(t, 13, nil)
	rg.feed(t, 3)
	var mu sync.Mutex
	var errs []error
	stop := rg.rel.Start(func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	})
	// No sleeps: the production interval (1m default) never fires in
	// this test; stop's final flush is the only tick.
	stop()
	stop() // idempotent
	if got := rg.rel.Ticks(); got != 1 {
		t.Fatalf("Ticks after stop = %d, want exactly the final flush", got)
	}
	h := rg.rel.History(0)
	if len(h) != 1 || h[0].Users != 3 {
		t.Fatalf("final flush release: %+v", h)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(errs) != 0 {
		t.Fatalf("tick errors: %v", errs)
	}
}

// TestReplayIdentity is the package-level replay proof: a live
// interleaving of ingests and ticks, then an offline Replay of the
// captured log over the same tick schedule, must produce bit-identical
// releases and byte-identical ledger state.
func TestReplayIdentity(t *testing.T) {
	pol := &budget.Policy{LifetimeEps: 10, LifetimeDelta: 0.5}
	live := newRig(t, 21, pol)

	var log []LoggedEvent
	ticks := []time.Time{
		baseTime.Add(1 * time.Minute),
		baseTime.Add(2 * time.Minute),
		baseTime.Add(3 * time.Minute),
	}
	ingest := func(user, principal string, seed int, at time.Time) {
		live.clock.Set(at)
		ev := eventAt(t, user, seed, at)
		log = append(log, LoggedEvent{At: at, Principal: principal, Event: ev})
		if err := live.st.Apply(ev, principal); err != nil {
			t.Fatal(err)
		}
	}

	var liveRels []WindowRelease
	tickAt := func(tk time.Time) {
		live.clock.Set(tk)
		wr, err := live.rel.Tick(tk)
		if err != nil {
			t.Fatal(err)
		}
		liveRels = append(liveRels, wr)
	}

	ingest("ada", "acme", 1, baseTime.Add(10*time.Second))
	ingest("bob", "globex", 2, baseTime.Add(20*time.Second))
	ingest("ada", "acme", 3, baseTime.Add(40*time.Second))
	tickAt(ticks[0])
	ingest("cyd", "acme", 4, baseTime.Add(70*time.Second))
	ingest("bob", "globex", 5, baseTime.Add(100*time.Second))
	tickAt(ticks[1])
	// Third window: nothing new; ada's first event ages out.
	tickAt(ticks[2])

	liveState, err := live.led.DumpState()
	if err != nil {
		t.Fatal(err)
	}

	replay := newRig(t, 21, pol)
	replayRels, err := Replay(replay.st, replay.rel, replay.clock, log, ticks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveRels, replayRels) {
		t.Fatalf("replay diverged:\n live   %+v\n replay %+v", liveRels, replayRels)
	}
	replayState, err := replay.led.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveState, replayState) {
		t.Fatalf("ledger state diverged:\n live   %s\n replay %s", liveState, replayState)
	}
}

func TestNewStoreAndReleaserValidation(t *testing.T) {
	city, _, mech := fixture(t)
	if _, err := NewStore(Config{City: city.City}); err == nil {
		t.Error("NewStore accepted MaxUsers = 0")
	}
	if _, err := NewStore(Config{MaxUsers: 4}); err == nil {
		t.Error("NewStore accepted a nil City")
	}
	if _, err := NewStore(Config{MaxUsers: 4, MaxPerUser: math.MaxInt32, City: city.City}); err == nil {
		t.Error("NewStore accepted a per-user cap whose sums can overflow int32")
	}
	st, err := NewStore(Config{MaxUsers: 4, City: city.City})
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Config(); c.Window != DefaultWindow || c.MaxPerUser != DefaultMaxPerUser || c.Radius != DefaultRadius {
		t.Errorf("defaults not applied: %+v", c)
	}
	if _, err := NewReleaser(nil, mech, nil, ReleaserConfig{}); err == nil {
		t.Error("NewReleaser accepted nil store")
	}
	if _, err := NewReleaser(st, nil, nil, ReleaserConfig{}); err == nil {
		t.Error("NewReleaser accepted nil mechanism")
	}
	led, err := budget.New(budget.Policy{LifetimeEps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReleaser(st, mech, led, ReleaserConfig{}); err == nil {
		t.Error("NewReleaser accepted a ledger with Eps = 0")
	}
	if _, err := Replay(nil, nil, nil, nil, nil); err == nil {
		t.Error("Replay accepted nils")
	}
}
