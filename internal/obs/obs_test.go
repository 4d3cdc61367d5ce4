package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations uniform over (0, 100ms].
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * 100 * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Max(), 100*time.Millisecond; got != want {
		t.Errorf("max = %v, want %v", got, want)
	}
	// Geometric buckets double, so an estimate is within 2x of truth.
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.5, 50 * time.Millisecond}, {0.9, 90 * time.Millisecond}, {0.99, 99 * time.Millisecond}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.want/2 || got > 2*c.want {
			t.Errorf("q%.2f = %v, want within 2x of %v", c.q, got, c.want)
		}
	}
	if mean := h.Mean(); mean < 40*time.Millisecond || mean > 60*time.Millisecond {
		t.Errorf("mean = %v, want ~50ms", mean)
	}
}

func TestHistogramEmptyAndClamped(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram must report zeros")
	}
	h.Observe(-time.Second) // clamped to 0
	if h.Max() != 0 {
		t.Errorf("negative observation recorded max %v", h.Max())
	}
	h.Observe(100 * time.Hour) // overflow bucket clamps to max
	if got := h.Quantile(0.99); got != 100*time.Hour {
		t.Errorf("overflow quantile = %v", got)
	}
}

func TestRegistryRouteCap(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 3*maxRoutes; i++ {
		reg.Route(fmt.Sprintf("GET /r/%d", i)).ObserveRequest(200, time.Millisecond)
	}
	snap := reg.Snapshot()
	if len(snap.Routes) > maxRoutes+1 {
		t.Errorf("route map grew to %d entries", len(snap.Routes))
	}
	other, ok := snap.Routes[RouteOther]
	if !ok || other.Requests == 0 {
		t.Errorf("overflow routes not aggregated: %+v", other)
	}
	var total uint64
	for _, rs := range snap.Routes {
		total += rs.Requests
	}
	if total != 3*maxRoutes {
		t.Errorf("lost requests: %d of %d", total, 3*maxRoutes)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				reg.Route(fmt.Sprintf("GET /r/%d", j%10)).ObserveRequest(200, time.Microsecond)
				reg.Counter("retries").Inc()
				if j%100 == 0 {
					reg.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := reg.Counter("retries").Value(); got != 4000 {
		t.Errorf("retries = %d", got)
	}
	reqs, _, inflight := reg.Totals()
	if reqs != 4000 || inflight != 0 {
		t.Errorf("totals = %d requests, %d in flight", reqs, inflight)
	}
}

func TestInstrumentRecordsAndServesEndpoints(t *testing.T) {
	reg := NewRegistry()
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		io.WriteString(w, "ok")
	})
	mux := http.NewServeMux()
	mux.Handle("GET /work", inner)
	mux.Handle("GET /boom", inner)
	var hooked int
	h := Instrument(reg, mux, mux, WithRequestHook(func(r *http.Request, status int, d time.Duration) {
		hooked++
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/work")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, path := range []string{PathHealthz, PathReadyz} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d", path, resp.StatusCode)
		}
		var v map[string]string
		if err := json.Unmarshal(body, &v); err != nil {
			t.Errorf("%s body is not JSON: %q", path, body)
		}
	}

	resp, err = http.Get(ts.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	work := snap.Routes["GET /work"]
	if work.Requests != 3 || work.Status["2xx"] != 3 || work.Latency.Count != 3 {
		t.Errorf("GET /work snapshot = %+v", work)
	}
	boom := snap.Routes["GET /boom"]
	if boom.Requests != 1 || boom.Status["5xx"] != 1 {
		t.Errorf("GET /boom snapshot = %+v", boom)
	}
	if _, ok := snap.Routes["GET "+PathMetrics]; ok {
		t.Error("operational endpoint counted as a route")
	}
	if hooked != 4 {
		t.Errorf("request hook fired %d times, want 4", hooked)
	}
}

func TestReadyCheckFailure(t *testing.T) {
	reg := NewRegistry()
	h := Instrument(reg, http.NewServeMux(), http.NotFoundHandler(), WithReadyCheck(func() error {
		return errors.New("warming up")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, PathReadyz, nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "warming up") {
		t.Errorf("readyz body = %q", rec.Body.String())
	}
}

func TestStartSummaryLogsTraffic(t *testing.T) {
	reg := NewRegistry()
	reg.Route("GET /x").ObserveRequest(200, 2*time.Millisecond)
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := log.New(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), "", 0)
	ctx, cancel := context.WithCancel(context.Background())
	StartSummary(ctx, logger, reg, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		out := buf.String()
		mu.Unlock()
		if strings.Contains(out, "stats: 1 requests") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no summary line, got %q", out)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
