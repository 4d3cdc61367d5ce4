package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"poiagg/internal/geo"
	"poiagg/internal/obs"
	"poiagg/internal/stream"
)

// faultAction is one scripted behavior of the fault-injection transport.
type faultAction int

const (
	actOK       faultAction = iota // pass through to the real server
	act503                         // synthesize a 503 burst response
	actDrop                        // fail at the transport (connection reset)
	actDelay                       // stall before passing through
	act429                         // synthesize a 429 budget denial with a structured body
	act503Retry                    // synthesize an admission shed: 503 + Retry-After + structured body
	act401                         // synthesize an auth rejection with a structured body
	actRefused                     // fail at the transport (connection refused — dead peer)
	act413                         // synthesize a body-too-large rejection with a structured body
)

// refusedErr mirrors what net.Dialer returns against a closed port, so
// the classifier's errors.Is(err, syscall.ECONNREFUSED) check is
// exercised through the same wrapping chain as in production.
func refusedErr() error {
	return &net.OpError{
		Op:   "dial",
		Net:  "tcp",
		Addr: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1},
		Err:  os.NewSyscallError("connect", syscall.ECONNREFUSED),
	}
}

// faultTransport is a test-only RoundTripper that injects failures
// according to a per-call script; calls beyond the script pass through.
type faultTransport struct {
	base  http.RoundTripper
	delay time.Duration

	mu     sync.Mutex
	script []faultAction
	calls  int
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	act := actOK
	if ft.calls < len(ft.script) {
		act = ft.script[ft.calls]
	}
	ft.calls++
	ft.mu.Unlock()

	switch act {
	case act503:
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1, ProtoMinor: 1,
			Header:  make(http.Header),
			Body:    io.NopCloser(strings.NewReader(`{"error":"injected overload"}`)),
			Request: req,
		}, nil
	case act503Retry:
		h := make(http.Header)
		h.Set("Retry-After", "1")
		h.Set("Content-Type", "application/json")
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1, ProtoMinor: 1,
			Header: h,
			Body: io.NopCloser(strings.NewReader(
				`{"error":"server overloaded, request shed (queue_full)","reason":"queue_full","retryAfterSeconds":1}`)),
			Request: req,
		}, nil
	case act401:
		h := make(http.Header)
		h.Set("Content-Type", "application/json")
		return &http.Response{
			Status:     "401 Unauthorized",
			StatusCode: http.StatusUnauthorized,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1, ProtoMinor: 1,
			Header: h,
			Body: io.NopCloser(strings.NewReader(
				`{"error":"unauthorized: signature does not match request","reason":"bad_signature"}`)),
			Request: req,
		}, nil
	case act413:
		h := make(http.Header)
		h.Set("Content-Type", "application/json")
		return &http.Response{
			Status:     "413 Request Entity Too Large",
			StatusCode: http.StatusRequestEntityTooLarge,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1, ProtoMinor: 1,
			Header: h,
			Body: io.NopCloser(strings.NewReader(
				`{"error":"request body exceeds 1048576 bytes"}`)),
			Request: req,
		}, nil
	case actDrop:
		return nil, errors.New("faultproxy: connection reset by peer")
	case actRefused:
		return nil, refusedErr()
	case act429:
		return &http.Response{
			Status:     "429 Too Many Requests",
			StatusCode: http.StatusTooManyRequests,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1, ProtoMinor: 1,
			Header: make(http.Header),
			Body: io.NopCloser(strings.NewReader(
				`{"error":"privacy budget denied (window)","budget":` +
					`{"principal":"alice","spentEps":1.5,"spentDelta":0,` +
					`"remainingEps":98.5,"remainingDelta":0,` +
					`"windowRemainingEps":0,"windowRemainingDelta":0,` +
					`"releases":3,"denial":"window","retryAfterSeconds":3600}}`)),
			Request: req,
		}, nil
	case actDelay:
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(ft.delay):
		}
	}
	return ft.base.RoundTrip(req)
}

func (ft *faultTransport) callCount() int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.calls
}

// trackingTransport wraps every response body so the test can prove the
// client never leaks one, across successes, retries, and error paths.
type trackingTransport struct {
	base   http.RoundTripper
	opened atomic.Int64
	open   atomic.Int64
}

func (tt *trackingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	tt.opened.Add(1)
	tt.open.Add(1)
	resp.Body = &trackedBody{ReadCloser: resp.Body, open: &tt.open}
	return resp, nil
}

type trackedBody struct {
	io.ReadCloser
	open   *atomic.Int64
	closed atomic.Bool
}

func (b *trackedBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.open.Add(-1)
	}
	return b.ReadCloser.Close()
}

// faultyGSPClient builds a GSP client whose transport runs through the
// fault script and body tracker.
func faultyGSPClient(t *testing.T, script []faultAction, delay time.Duration, opts ...ClientOption) (*GSPClient, *faultTransport, *trackingTransport) {
	t.Helper()
	ts, _ := newGSPTestServer(t)
	ft := &faultTransport{base: http.DefaultTransport, script: script, delay: delay}
	tt := &trackingTransport{base: ft}
	hc := &http.Client{Transport: tt}
	client := NewGSPClient(ts.URL, hc, opts...)
	t.Cleanup(func() {
		if n := tt.open.Load(); n != 0 {
			t.Errorf("%d of %d response bodies leaked", n, tt.opened.Load())
		}
		hc.CloseIdleConnections()
	})
	return client, ft, tt
}

func fastBackoff() ClientOption { return WithBackoff(time.Millisecond, 4*time.Millisecond) }

// faultyLBSClient builds a streaming-enabled LBS client whose transport
// runs through the fault script and body tracker.
func faultyLBSClient(t *testing.T, script []faultAction, opts ...ClientOption) (*LBSClient, *faultTransport, *trackingTransport) {
	t.Helper()
	city, _ := wireFixture(t)
	st, err := stream.NewStore(stream.Config{MaxUsers: 16, City: city.City})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewLBSServer(city.M(), WithStream(st, nil)))
	t.Cleanup(ts.Close)
	ft := &faultTransport{base: http.DefaultTransport, script: script}
	tt := &trackingTransport{base: ft}
	hc := &http.Client{Transport: tt}
	client := NewLBSClient(ts.URL, hc, opts...)
	t.Cleanup(func() {
		if n := tt.open.Load(); n != 0 {
			t.Errorf("%d of %d response bodies leaked", n, tt.opened.Load())
		}
		hc.CloseIdleConnections()
	})
	return client, ft, tt
}

// TestLBSClientBodyTooLargeIsTerminal proves a 413 maps to the typed
// BodyTooLargeError and is never retried: the cap will reject the same
// payload every time, so retries only burn attempts.
func TestLBSClientBodyTooLargeIsTerminal(t *testing.T) {
	reg := obs.NewRegistry()
	client, ft, _ := faultyLBSClient(t, []faultAction{act413},
		WithRetries(3), fastBackoff(), WithClientMetrics(reg))

	_, err := client.Ingest(context.Background(), []stream.Event{
		{UserID: "u1", X: 1, Y: 1, TS: time.Now()},
	})
	if err == nil {
		t.Fatal("413 produced no error")
	}
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("want ErrBodyTooLarge, got %v", err)
	}
	var btl *BodyTooLargeError
	if !errors.As(err, &btl) {
		t.Fatalf("error is not a *BodyTooLargeError: %v", err)
	}
	if btl.Path != PathIngest {
		t.Errorf("BodyTooLargeError.Path = %q, want %q", btl.Path, PathIngest)
	}
	if !strings.Contains(btl.Message, "1048576") {
		t.Errorf("typed error lost the server's cap message: %q", btl.Message)
	}
	if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrBudgetDenied) {
		t.Errorf("413 cross-matches another sentinel: %v", err)
	}
	if got := ft.callCount(); got != 1 {
		t.Errorf("413 retried: %d attempts, want 1", got)
	}
	if got := reg.Counter(MetricClientRetries).Value(); got != 0 {
		t.Errorf("retry counter = %d, want 0", got)
	}
	if got := reg.Counter(MetricClientFailures).Value(); got != 1 {
		t.Errorf("failure counter = %d, want 1", got)
	}
}

func TestGSPClientRetriesThroughFaultBurst(t *testing.T) {
	reg := obs.NewRegistry()
	client, ft, _ := faultyGSPClient(t, []faultAction{act503, actDrop}, 0,
		WithRetries(2), fastBackoff(), WithClientMetrics(reg))

	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatalf("client did not recover from a 2-failure burst: %v", err)
	}
	if stats.NumPOIs == 0 {
		t.Errorf("recovered stats empty: %+v", stats)
	}
	if got := ft.callCount(); got != 3 {
		t.Errorf("made %d attempts, want 3", got)
	}
	if got := reg.Counter(MetricClientRetries).Value(); got != 2 {
		t.Errorf("retry counter = %d, want 2", got)
	}
	if got := reg.Counter(MetricClientAttempts).Value(); got != 3 {
		t.Errorf("attempt counter = %d, want 3", got)
	}
	if got := reg.Counter(MetricClientFailures).Value(); got != 0 {
		t.Errorf("failure counter = %d, want 0", got)
	}
}

func TestGSPClientExhaustsRetries(t *testing.T) {
	reg := obs.NewRegistry()
	script := []faultAction{act503, act503, act503, act503}
	client, ft, _ := faultyGSPClient(t, script, 0,
		WithRetries(2), fastBackoff(), WithClientMetrics(reg))

	_, err := client.Stats(context.Background())
	if err == nil {
		t.Fatal("persistent 503s produced no error")
	}
	if !strings.Contains(err.Error(), "injected overload") {
		t.Errorf("error hides the server message: %v", err)
	}
	if errors.Is(err, ErrBadRequest) {
		t.Errorf("5xx misclassified as bad request: %v", err)
	}
	if got := ft.callCount(); got != 3 {
		t.Errorf("made %d attempts, want 3 (1 + 2 retries)", got)
	}
	if got := reg.Counter(MetricClientFailures).Value(); got != 1 {
		t.Errorf("failure counter = %d, want 1", got)
	}
}

func TestGSPClientNeverRetries4xx(t *testing.T) {
	reg := obs.NewRegistry()
	client, ft, _ := faultyGSPClient(t, nil, 0,
		WithRetries(3), fastBackoff(), WithClientMetrics(reg))

	// Radius beyond the server cap: a deterministic 400.
	_, err := client.Freq(context.Background(), geo.Point{}, 1e9)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
	if got := ft.callCount(); got != 1 {
		t.Errorf("4xx retried: %d attempts", got)
	}
	if got := reg.Counter(MetricClientRetries).Value(); got != 0 {
		t.Errorf("retry counter = %d, want 0", got)
	}
}

func TestGSPClientRespectsContextDeadline(t *testing.T) {
	script := []faultAction{actDelay, actDelay, actDelay, actDelay}
	client, ft, _ := faultyGSPClient(t, script, 500*time.Millisecond,
		WithRetries(3), fastBackoff())

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Stats(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("deadline-bound request succeeded through a stalled transport")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error does not carry the deadline: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("client kept retrying past the deadline: %v", elapsed)
	}
	if got := ft.callCount(); got != 1 {
		t.Errorf("client retried after the caller's deadline: %d attempts", got)
	}
}

func TestGSPClientPerAttemptTimeoutRetries(t *testing.T) {
	// Each attempt stalls past the per-attempt timeout, but the parent
	// context stays alive, so the client should keep retrying and fail
	// only after exhausting its budget.
	reg := obs.NewRegistry()
	script := []faultAction{actDelay, actDelay, actDelay}
	client, ft, _ := faultyGSPClient(t, script, time.Second,
		WithRetries(1), fastBackoff(), WithRequestTimeout(20*time.Millisecond),
		WithClientMetrics(reg))

	_, err := client.Stats(context.Background())
	if err == nil {
		t.Fatal("stalled transport produced no error")
	}
	if got := ft.callCount(); got != 2 {
		t.Errorf("made %d attempts, want 2 (1 + 1 retry)", got)
	}
	if got := reg.Counter(MetricClientRetries).Value(); got != 1 {
		t.Errorf("retry counter = %d, want 1", got)
	}
}

func TestGSPClientConnectionRefusedStopsEarly(t *testing.T) {
	// A dead shard refuses instantly, so burning the full retry budget
	// on it only adds backoff latency while the gateway could already be
	// failing over. Persistent refusal must stop after one retry — not
	// the configured 3 — and surface the typed eviction hint.
	reg := obs.NewRegistry()
	script := []faultAction{actRefused, actRefused, actRefused, actRefused}
	client, ft, _ := faultyGSPClient(t, script, 0,
		WithRetries(3), fastBackoff(), WithClientMetrics(reg))

	_, err := client.Stats(context.Background())
	if err == nil {
		t.Fatal("persistent connection refusal produced no error")
	}
	if !errors.Is(err, ErrPeerUnreachable) {
		t.Errorf("error does not carry the peer-eviction hint: %v", err)
	}
	var pu *PeerUnreachableError
	if !errors.As(err, &pu) {
		t.Fatalf("error is not a *PeerUnreachableError: %v", err)
	}
	if pu.Path != PathStats {
		t.Errorf("PeerUnreachableError.Path = %q, want %q", pu.Path, PathStats)
	}
	if got := ft.callCount(); got != 2 {
		t.Errorf("made %d attempts against a refusing peer, want 2 (1 + 1 retry)", got)
	}
	if got := reg.Counter(MetricClientFailures).Value(); got != 1 {
		t.Errorf("failure counter = %d, want 1", got)
	}
}

func TestGSPClientRecoversFromSingleRefusal(t *testing.T) {
	// One refusal (a restarting shard) is still transient: the single
	// permitted retry must carry the request through.
	reg := obs.NewRegistry()
	client, ft, _ := faultyGSPClient(t, []faultAction{actRefused}, 0,
		WithRetries(3), fastBackoff(), WithClientMetrics(reg))

	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatalf("client did not recover from a single refusal: %v", err)
	}
	if stats.NumPOIs == 0 {
		t.Errorf("recovered stats empty: %+v", stats)
	}
	if got := ft.callCount(); got != 2 {
		t.Errorf("made %d attempts, want 2", got)
	}
	if got := reg.Counter(MetricClientFailures).Value(); got != 0 {
		t.Errorf("failure counter = %d, want 0", got)
	}
}

func TestGSPClientDrainsBodiesAcrossMixedOutcomes(t *testing.T) {
	// A success, an injected 503 with a body, a retried recovery, and a
	// 400 — the tracking transport (checked in cleanup) proves every
	// body was closed.
	client, _, tt := faultyGSPClient(t, []faultAction{actOK, act503}, 0,
		WithRetries(1), fastBackoff())
	ctx := context.Background()

	if _, err := client.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Stats(ctx); err != nil { // 503 then retried OK
		t.Fatal(err)
	}
	if _, err := client.Freq(ctx, geo.Point{}, -1); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
	if opened := tt.opened.Load(); opened != 4 {
		t.Errorf("tracked %d responses, want 4", opened)
	}
}
