package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"poiagg/internal/obs"
	"poiagg/internal/poi"
)

func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// reqWithCtx builds a throwaway request carrying ctx, for driving the
// admission semaphore directly.
func reqWithCtx(ctx context.Context) *http.Request {
	return httptest.NewRequest(http.MethodGet, "/x", nil).WithContext(ctx)
}

// waitFor polls cond up to a second — used only to sequence goroutine
// enqueue order, never to assert timing.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionGrantsUpToLimit(t *testing.T) {
	a := newAdmission(AdmissionConfig{Limit: 3, Queue: 0, Timeout: 0})
	r := reqWithCtx(context.Background())
	for i := 0; i < 3; i++ {
		if reason, ok := a.acquire(r, 1); !ok {
			t.Fatalf("acquire %d shed: %s", i, reason)
		}
	}
	if reason, ok := a.acquire(r, 1); ok {
		t.Fatal("4th acquire admitted beyond limit 3")
	} else if reason != shedTimeout {
		t.Errorf("no-wait shed reason = %s", reason)
	}
	a.release(1)
	if _, ok := a.acquire(r, 1); !ok {
		t.Fatal("acquire after release shed")
	}
	if got := a.inflight.Load(); got != 3 {
		t.Errorf("inflight = %d, want 3", got)
	}
}

func TestAdmissionFIFOOrder(t *testing.T) {
	a := newAdmission(AdmissionConfig{Limit: 1, Queue: 8, Timeout: 5 * time.Second})
	r := reqWithCtx(context.Background())
	if _, ok := a.acquire(r, 1); !ok {
		t.Fatal("initial acquire shed")
	}

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, ok := a.acquire(r, 1); !ok {
				t.Errorf("waiter %d shed", i)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			a.release(1)
		}(i)
		// Enqueue order is the spawn order: wait until this waiter is
		// actually queued before spawning the next.
		waitFor(t, fmt.Sprintf("waiter %d queued", i), func() bool {
			return a.queued.Load() == int64(i+1)
		})
	}
	a.release(1) // grants cascade front-to-back as each waiter releases
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
	if a.queued.Load() != 0 || a.inflight.Load() != 0 {
		t.Errorf("gauges not drained: queued=%d inflight=%d", a.queued.Load(), a.inflight.Load())
	}
}

func TestAdmissionQueueOverflowShedsImmediately(t *testing.T) {
	a := newAdmission(AdmissionConfig{Limit: 1, Queue: 2, Timeout: 5 * time.Second})
	r := reqWithCtx(context.Background())
	if _, ok := a.acquire(r, 1); !ok {
		t.Fatal("initial acquire shed")
	}
	for i := 0; i < 2; i++ {
		go a.acquire(r, 1) // fills the queue
		waitFor(t, "queue fill", func() bool { return a.queued.Load() == int64(i+1) })
	}
	start := time.Now()
	reason, ok := a.acquire(r, 1)
	if ok {
		t.Fatal("overflow request admitted")
	}
	if reason != shedQueueFull {
		t.Errorf("reason = %s, want queue_full", reason)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("overflow shed took %v; must not wait", elapsed)
	}
	if a.shed.Load() != 1 {
		t.Errorf("shed counter = %d, want 1", a.shed.Load())
	}
	a.release(1)
}

func TestAdmissionTimeoutSheds(t *testing.T) {
	a := newAdmission(AdmissionConfig{Limit: 1, Queue: 4, Timeout: 30 * time.Millisecond})
	r := reqWithCtx(context.Background())
	if _, ok := a.acquire(r, 1); !ok {
		t.Fatal("initial acquire shed")
	}
	start := time.Now()
	reason, ok := a.acquire(r, 1)
	if ok {
		t.Fatal("queued request admitted while the slot was held")
	}
	if reason != shedTimeout {
		t.Errorf("reason = %s, want timeout", reason)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("timeout shed after %v, want ~30ms", elapsed)
	}
	if a.queued.Load() != 0 {
		t.Errorf("queued gauge = %d after timeout", a.queued.Load())
	}
	a.release(1)
}

func TestAdmissionDeadlineAwareShedding(t *testing.T) {
	// The configured wait is 10s, but the request's own deadline is
	// 30ms away: the shed must come at the deadline, not the timeout.
	a := newAdmission(AdmissionConfig{Limit: 1, Queue: 4, Timeout: 10 * time.Second})
	bg := reqWithCtx(context.Background())
	if _, ok := a.acquire(bg, 1); !ok {
		t.Fatal("initial acquire shed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	reason, ok := a.acquire(reqWithCtx(ctx), 1)
	if ok {
		t.Fatal("admitted past a held slot")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline-bound wait lasted %v", elapsed)
	}
	if reason != shedDeadline {
		t.Errorf("reason = %s, want deadline", reason)
	}

	// An already-expired deadline sheds without queueing at all.
	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	<-expired.Done()
	if reason, ok := a.acquire(reqWithCtx(expired), 1); ok || reason != shedDeadline {
		t.Errorf("expired deadline: ok=%v reason=%s", ok, reason)
	}
	a.release(1)
}

func TestAdmissionWeightClamp(t *testing.T) {
	// A batch heavier than the whole limiter is clamped, not deadlocked.
	a := newAdmission(AdmissionConfig{Limit: 2, Queue: 0, Timeout: 0})
	r := reqWithCtx(context.Background())
	if _, ok := a.acquire(r, 10); !ok {
		t.Fatal("clamped batch shed")
	}
	if a.cur != 2 {
		t.Errorf("cur = %d, want clamped 2", a.cur)
	}
	if _, ok := a.acquire(r, 1); ok {
		t.Error("limiter had room while a clamped max-weight batch ran")
	}
	a.release(10)
	if a.cur != 0 || a.inflight.Load() != 0 {
		t.Errorf("release not symmetric: cur=%d inflight=%d", a.cur, a.inflight.Load())
	}
}

// blockingAuditor holds every audit until released, letting tests pin
// the server's single admitted slot.
type blockingAuditor struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingAuditor) Audit(poi.FreqVector, float64) (bool, int) {
	b.entered <- struct{}{}
	<-b.release
	return false, 0
}

// saturatedLBS builds an admission-limited (limit 1, no queue) LBS
// server whose one slot is pinned by an in-flight release, and returns
// the server plus a func that unblocks it.
func saturatedLBS(t *testing.T) (*httptest.Server, *LBSServer, func()) {
	t.Helper()
	city, svc := wireFixture(t)
	aud := &blockingAuditor{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := NewLBSServer(city.M(),
		WithAuditor(aud),
		WithAdmission(1, 0, 50*time.Millisecond))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	rel := ReleaseRequest{UserID: "pin", Freq: svc.Freq(city.RandomLocations(1, 90)[0], 900), R: 900}
	body, err := json.Marshal(rel)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		status, _ := getStatusAndBody(t, http.MethodPost, ts.URL+PathRelease, string(body))
		if status != http.StatusOK {
			t.Errorf("pinned release = %d, want 200", status)
		}
	}()
	<-aud.entered // the slot is now held inside the handler
	var once sync.Once
	unblock := func() {
		once.Do(func() { close(aud.release); <-done })
	}
	t.Cleanup(unblock)
	return ts, srv, unblock
}

func TestAdmissionShedsWith503AndRetryAfter(t *testing.T) {
	ts, _, _ := saturatedLBS(t)
	status, body := getStatusAndBody(t, http.MethodPost, ts.URL+PathRelease, `{"userId":"u"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503 (body %q)", status, body)
	}
	var shed AdmissionErrorResponse
	if err := json.Unmarshal(body, &shed); err != nil {
		t.Fatalf("shed body is not structured JSON: %q", body)
	}
	if shed.Error == "" || shed.Reason != string(shedQueueFull) {
		t.Errorf("shed body = %+v", shed)
	}
	if shed.RetryAfterSeconds < 1 {
		t.Errorf("retryAfterSeconds = %d, want >= 1", shed.RetryAfterSeconds)
	}
	// The header must match the body and parse as positive seconds.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+PathRelease, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Errorf("Retry-After header = %q", resp.Header.Get("Retry-After"))
	}
}

// saturatedGateway is saturatedLBS for the cluster gateway: its one
// admission slot is pinned by a GET /v1/stats that its only shard holds
// open until unblock.
func saturatedGateway(t *testing.T) (*httptest.Server, *ClusterGateway, func()) {
	t.Helper()
	entered, release := make(chan struct{}, 1), make(chan struct{})
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		select {
		case entered <- struct{}{}:
		default: // only the first request signals
		}
		<-release
		writeJSON(w, http.StatusOK, StatsResponse{Name: "pinned"})
	}))
	t.Cleanup(shard.Close)
	ts, gw := newGatewayTestServer(t, shard.URL, WithAdmission(1, 0, 50*time.Millisecond))
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + PathStats)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("pinned stats = %d, want 200", resp.StatusCode)
		}
	}()
	<-entered // the slot is now held inside the handler
	var once sync.Once
	unblock := func() {
		once.Do(func() { close(release); <-done })
	}
	t.Cleanup(unblock)
	return ts, gw, unblock
}

func TestAdmissionOperationalEndpointsBypass(t *testing.T) {
	for _, tc := range []struct {
		name      string
		saturated func(*testing.T) (*httptest.Server, interface{ Drain() }, func())
	}{
		{"lbs", func(t *testing.T) (*httptest.Server, interface{ Drain() }, func()) { return saturatedLBS(t) }},
		{"gateway", func(t *testing.T) (*httptest.Server, interface{ Drain() }, func()) { return saturatedGateway(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, srv, unblock := tc.saturated(t)
			// With the only slot pinned, probes and scrapes still answer 200.
			for _, path := range []string{obs.PathHealthz, obs.PathReadyz} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s = %d under saturation, want 200", path, resp.StatusCode)
				}
			}
			snap := fetchSnapshot(t, ts.URL)
			if got := snap.Counters[MetricAdmissionInflight]; got != 1 {
				t.Errorf("admission.inflight = %d, want 1", got)
			}

			// Drain: readyz flips to 503, healthz stays 200, traffic still flows.
			srv.Drain()
			resp, err := http.Get(ts.URL + obs.PathReadyz)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("readyz after Drain = %d, want 503", resp.StatusCode)
			}
			resp, err = http.Get(ts.URL + obs.PathHealthz)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("healthz after Drain = %d, want 200", resp.StatusCode)
			}

			unblock()
			snap = fetchSnapshot(t, ts.URL)
			if got := snap.Counters[MetricAdmissionInflight]; got != 0 {
				t.Errorf("admission.inflight = %d after quiesce", got)
			}
		})
	}
}

func TestAdmissionShedMetric(t *testing.T) {
	ts, _, _ := saturatedLBS(t)
	for i := 0; i < 3; i++ {
		status, _ := getStatusAndBody(t, http.MethodPost, ts.URL+PathRelease, `{"userId":"u"}`)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("shed %d = %d, want 503", i, status)
		}
	}
	snap := fetchSnapshot(t, ts.URL)
	if got := snap.Counters[MetricAdmissionShed]; got != 3 {
		t.Errorf("admission.shed = %d, want 3", got)
	}
	if got := snap.Counters[MetricAdmissionQueued]; got != 0 {
		t.Errorf("admission.queued = %d, want 0", got)
	}
}

func TestBatchCountsByItemWeight(t *testing.T) {
	_, svc := wireFixture(t)
	srv := NewGSPServer(svc, WithAdmission(4, 0, 0), WithLogger(discardLogger()))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A batch of 6 items against limit 4 is clamped and admitted.
	body := `{"items":[` +
		`{"x":100,"y":100,"r":500},{"x":200,"y":200,"r":500},{"x":300,"y":300,"r":500},` +
		`{"x":400,"y":400,"r":500},{"x":500,"y":500,"r":500},{"x":600,"y":600,"r":500}]}`
	status, raw := getStatusAndBody(t, http.MethodPost, ts.URL+PathFreqBatch, body)
	if status != http.StatusOK {
		t.Fatalf("clamped batch = %d (body %q)", status, raw)
	}
	var resp FreqBatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 6 {
		t.Fatalf("%d results, want 6", len(resp.Results))
	}

	// Direct semaphore check of the weighting: 3 items + 1 single fit in
	// limit 4; one more single sheds.
	a := srv.admit
	r := reqWithCtx(context.Background())
	if _, ok := a.acquire(r, 3); !ok {
		t.Fatal("3-item batch shed on an idle limiter")
	}
	if _, ok := a.acquire(r, 1); !ok {
		t.Fatal("single request shed with one slot free")
	}
	if _, ok := a.acquire(r, 1); ok {
		t.Fatal("admitted beyond limit: batch weight not counted")
	}
	a.release(1)
	a.release(3)
}
