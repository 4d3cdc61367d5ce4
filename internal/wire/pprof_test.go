package wire

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
)

// getStatus issues a GET and returns the response status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// newPprofGateway serves the cluster gateway over one test shard; the
// gateway serves the GSP surface, so the GSP pprof tests cover it too.
func newPprofGateway(t *testing.T, opts ...ServerOption) string {
	t.Helper()
	shard, _ := newGSPTestServer(t)
	ts, _ := newGatewayTestServer(t, shard.URL, opts...)
	return ts.URL
}

func TestGSPServerPprofOptIn(t *testing.T) {
	ts, _ := newGSPTestServer(t, WithPprof(true))
	for _, base := range []string{ts.URL, newPprofGateway(t, WithPprof(true))} {
		if got := getStatus(t, base+PathPprof); got != http.StatusOK {
			t.Errorf("pprof index with WithPprof(true): status %d", got)
		}
		if got := getStatus(t, base+PathPprof+"cmdline"); got != http.StatusOK {
			t.Errorf("pprof cmdline with WithPprof(true): status %d", got)
		}
	}
}

func TestGSPServerPprofDefaultOff(t *testing.T) {
	ts, _ := newGSPTestServer(t)
	for _, base := range []string{ts.URL, newPprofGateway(t)} {
		if got := getStatus(t, base+PathPprof); got != http.StatusNotFound {
			t.Errorf("pprof index without opt-in: status %d, want 404", got)
		}
	}
}

func TestLBSServerPprofOptIn(t *testing.T) {
	city, _ := wireFixture(t)
	ts := httptest.NewServer(NewLBSServer(city.M(),
		WithLogger(log.New(io.Discard, "", 0)),
		WithPprof(true)))
	t.Cleanup(ts.Close)
	if got := getStatus(t, ts.URL+PathPprof); got != http.StatusOK {
		t.Errorf("pprof index with WithPprof(true): status %d", got)
	}

	off := httptest.NewServer(NewLBSServer(city.M()))
	t.Cleanup(off.Close)
	if got := getStatus(t, off.URL+PathPprof); got != http.StatusNotFound {
		t.Errorf("pprof index without opt-in: status %d, want 404", got)
	}
}
