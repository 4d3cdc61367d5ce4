package wire

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/obs"
)

// TestMetricsOmitTenantNames: the unsigned /v1/metrics must not name
// a tenant. Keyed on the request path, route metrics would put "alice"
// on the public document after one signed GET /v1/budget/alice; keyed
// on the mux pattern, the route is GET /v1/budget/{principal}.
func TestMetricsOmitTenantNames(t *testing.T) {
	led, err := budget.New(budget.Policy{LifetimeEps: 100})
	if err != nil {
		t.Fatal(err)
	}
	clk := newBudgetClock()
	ts, _ := newLBSTestServer(t,
		WithAuth(mustKeyring(t, "alice"), WithAuthClock(clk.Now)), WithBudget(led, 0.5, 0))
	status, body := signedProbe(t, ts.URL, http.MethodGet, PathBudget+"/alice", nil,
		"alice", testKey('A'), clk.Now(), "00000000000000a1", nil)
	if status != http.StatusOK {
		t.Fatalf("signed budget status = %d (%s)", status, body)
	}
	metrics, raw := getStatusAndBody(t, http.MethodGet, ts.URL+obs.PathMetrics, "")
	if metrics != http.StatusOK {
		t.Fatalf("unsigned %s = %d", obs.PathMetrics, metrics)
	}
	if bytes.Contains(raw, []byte("alice")) {
		t.Errorf("unsigned %s names the tenant:\n%s", obs.PathMetrics, raw)
	}
	if got := fetchSnapshot(t, ts.URL).Routes["GET "+PathBudget+"/{principal}"].Requests; got != 1 {
		t.Errorf("budget route requests = %d, want 1", got)
	}
}

// TestRouteTableSurvivesJunkPaths: junk paths must not fill the route
// table. With path keys, 100 distinct 404s would take all 64 slots and
// the first real request would land in "other".
func TestRouteTableSurvivesJunkPaths(t *testing.T) {
	ts, client := newGSPTestServer(t)
	for i := 0; i < 100; i++ {
		if status, _ := getStatusAndBody(t, http.MethodGet, fmt.Sprintf("%s/junk/%d", ts.URL, i), ""); status != http.StatusNotFound {
			t.Fatalf("junk %d = %d, want 404", i, status)
		}
	}
	city, _ := wireFixture(t)
	if _, err := client.Freq(context.Background(), city.RandomLocations(1, 5)[0], 500); err != nil {
		t.Fatal(err)
	}
	snap := fetchSnapshot(t, ts.URL)
	if got := snap.Routes["GET "+PathFreq].Requests; got != 1 {
		t.Errorf("GET %s requests = %d, want 1; routes: %d", PathFreq, got, len(snap.Routes))
	}
	if got := snap.Routes[obs.RouteOther].Requests; got != 100 {
		t.Errorf("%s requests = %d, want the 100 junk paths", obs.RouteOther, got)
	}
}

// TestRequestLogCannotBeForged: a %0A in the path must not start a
// second request-log line, or one unsigned request could append a fake
// entry to the log.
func TestRequestLogCannotBeForged(t *testing.T) {
	_, svc := wireFixture(t)
	var buf bytes.Buffer
	srv := NewGSPServer(svc, WithLogger(log.New(&buf, "gspd ", 0)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/x%0Agspd%20POST%20/v1/budget/alice/reset%20200%201ms", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Errorf("one request wrote %d log lines:\n%s", n, buf.String())
	}
}

// TestServeDrainsInFlightRequests: cancelling the serve loop's context
// flips /readyz to 503 while an in-flight request still finishes with
// 200, and the loop returns nil.
func TestServeDrainsInFlightRequests(t *testing.T) {
	var c serverCore
	c.initCore(newSettings(discardLogger(), nil), nil)
	entered, release := make(chan struct{}), make(chan struct{})
	c.mux.HandleFunc("GET /slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- c.serve(ctx, ln) }()

	statuses := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses <- resp.StatusCode
	}()
	<-entered
	cancel()
	// The listener closes on cancel, so ask the chain itself.
	for deadline := time.Now().Add(5 * time.Second); ; {
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, obs.PathReadyz, nil))
		if rec.Code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz = %d after cancel, want 503", rec.Code)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if got := <-statuses; got != http.StatusOK {
		t.Errorf("in-flight request = %d, want 200", got)
	}
	if err := <-served; err != nil {
		t.Errorf("serve returned %v, want nil", err)
	}
}
