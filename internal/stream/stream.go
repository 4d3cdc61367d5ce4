// Package stream is the live-ingestion subsystem: clients stream
// check-in events (user, location, timestamp), a bounded sliding-window
// store keeps each user's recent events and the running sum of their
// frequency vectors (each event is counted once, at the first tick
// that sees it), and a clock-driven Releaser periodically takes the
// per-user sums, applies the paper's DP release mechanism, charges the
// budget ledger per window, and publishes to a bounded release history.
//
// Everything is driven by an injected clock, so tests (and the
// replay-identity e2e) never sleep: the same event log replayed offline
// against the same tick schedule produces bit-identical releases.
package stream

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"poiagg/internal/geo"
)

// Validation errors, surfaced per event by the ingest endpoint.
var (
	// ErrNoUser marks an event with an empty user id.
	ErrNoUser = errors.New("stream: event has no userId")
	// ErrUserTooLong marks an oversized user id.
	ErrUserTooLong = errors.New("stream: userId too long")
	// ErrBadLocation marks a non-finite or out-of-bounds location.
	ErrBadLocation = errors.New("stream: bad location")
	// ErrNoTimestamp marks an event with a zero timestamp.
	ErrNoTimestamp = errors.New("stream: event has no timestamp")
	// ErrStaleEvent marks an event older than the sliding window — it
	// could never contribute to a release, so it is rejected rather than
	// silently buffered.
	ErrStaleEvent = errors.New("stream: event older than window")
	// ErrFutureEvent marks an event timestamped beyond the accepted
	// clock skew.
	ErrFutureEvent = errors.New("stream: event timestamp in the future")
	// ErrEventIDTooLong marks an oversized event id.
	ErrEventIDTooLong = errors.New("stream: event id too long")
	// ErrDuplicateEvent marks an event whose id already sits in the
	// user's window: an at-least-once retry replayed it, and the store
	// applied the original. It is a dedup outcome, not a validation
	// failure.
	ErrDuplicateEvent = errors.New("stream: duplicate event id in window")
)

// MaxUserIDLen bounds the user id so a single event cannot bloat the
// per-user map key space.
const MaxUserIDLen = 128

// MaxEventIDLen bounds the optional event id, which lives in the
// window store's per-user dedup set for as long as the event does.
const MaxEventIDLen = 128

// FutureSkew is how far ahead of the server clock an event timestamp
// may run before it is rejected as ErrFutureEvent.
const FutureSkew = 30 * time.Second

// Event is one streamed check-in: a user at a location at a time.
type Event struct {
	UserID string    `json:"userId"`
	X      float64   `json:"x"`
	Y      float64   `json:"y"`
	TS     time.Time `json:"ts"`
	// ID optionally identifies the event so at-least-once retries
	// deduplicate: re-applying an id that is still in the user's window
	// returns ErrDuplicateEvent instead of inflating the aggregate.
	// LBSClient.Ingest assigns ids automatically when absent.
	ID string `json:"id,omitempty"`
}

// Loc returns the event's location as a geo.Point.
func (e Event) Loc() geo.Point { return geo.Point{X: e.X, Y: e.Y} }

// Validate checks the event against the store's window [now-window, now
// +FutureSkew] and bounds (skipped when bounds has zero area).
func (e Event) Validate(now time.Time, window time.Duration, bounds geo.Rect) error {
	if e.UserID == "" {
		return ErrNoUser
	}
	if len(e.UserID) > MaxUserIDLen {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrUserTooLong, len(e.UserID), MaxUserIDLen)
	}
	if len(e.ID) > MaxEventIDLen {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrEventIDTooLong, len(e.ID), MaxEventIDLen)
	}
	if math.IsNaN(e.X) || math.IsInf(e.X, 0) || math.IsNaN(e.Y) || math.IsInf(e.Y, 0) {
		return fmt.Errorf("%w: non-finite coordinates", ErrBadLocation)
	}
	if bounds.Area() > 0 && !bounds.ContainsClosed(e.Loc()) {
		return fmt.Errorf("%w: (%.1f, %.1f) outside city bounds", ErrBadLocation, e.X, e.Y)
	}
	if e.TS.IsZero() {
		return ErrNoTimestamp
	}
	if !e.TS.After(now.Add(-window)) {
		return fmt.Errorf("%w: ts %s, window %s", ErrStaleEvent, e.TS.Format(time.RFC3339), window)
	}
	if e.TS.After(now.Add(FutureSkew)) {
		return fmt.Errorf("%w: ts %s", ErrFutureEvent, e.TS.Format(time.RFC3339))
	}
	return nil
}

// ManualClock is a settable clock for tests and replay: inject
// clock.Now into Config.Clock and budget.WithClock, then Set/Advance it
// explicitly instead of sleeping.
type ManualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewManualClock starts a manual clock at t.
func NewManualClock(t time.Time) *ManualClock { return &ManualClock{t: t} }

// Now returns the current manual time.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Set moves the clock to t.
func (c *ManualClock) Set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

// Advance moves the clock forward by d and returns the new time.
func (c *ManualClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}
