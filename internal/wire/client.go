package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"syscall"
	"time"

	"poiagg/internal/geo"
	"poiagg/internal/obs"
	"poiagg/internal/poi"
	"poiagg/internal/stream"
)

// ErrBadRequest marks 4xx replies from a server; match with errors.Is.
var ErrBadRequest = errors.New("wire: bad request")

// ErrBudgetDenied matches 429 privacy-budget denials with errors.Is.
// The budget will not refill within any backoff window, so these are
// terminal: the client never retries them.
var ErrBudgetDenied = errors.New("wire: budget denied")

// BudgetDeniedError is the typed error for a 429 budget denial;
// errors.As exposes the server-reported accounting.
type BudgetDeniedError struct {
	Path    string
	Message string
	// State carries the denial body's budget document; nil when the
	// server sent none.
	State *BudgetState
}

func (e *BudgetDeniedError) Error() string {
	return fmt.Sprintf("wire: %s: budget denied: %s", e.Path, e.Message)
}

// Is makes errors.Is(err, ErrBudgetDenied) match.
func (e *BudgetDeniedError) Is(target error) bool { return target == ErrBudgetDenied }

// ErrUnauthorized matches 401 auth rejections with errors.Is. A request
// the server will not authenticate cannot succeed by being resent —
// the key is wrong or absent — so these are terminal like the rest of
// 4xx: the client never retries them.
var ErrUnauthorized = errors.New("wire: unauthorized")

// UnauthorizedError is the typed error for a 401 auth rejection;
// errors.As exposes the server's structured reason.
type UnauthorizedError struct {
	Path    string
	Message string
	// Reason is the server's rejection class ("missing_signature",
	// "bad_signature", "stale_timestamp", "replay", ...); empty when the
	// server sent no structured body.
	Reason string
}

func (e *UnauthorizedError) Error() string {
	return fmt.Sprintf("wire: %s: unauthorized: %s", e.Path, e.Message)
}

// Is makes errors.Is(err, ErrUnauthorized) match.
func (e *UnauthorizedError) Is(target error) bool { return target == ErrUnauthorized }

// ErrPeerUnreachable matches transport failures where nothing was
// listening at the peer at all — a refused connection — with errors.Is.
// A refusal is unlike other transport faults (resets, timeouts): it
// fails in microseconds and means the process is down, not busy, so the
// client spends at most one retry on it instead of the full budget. The
// typed error doubles as an eviction hint: a caller holding a peer list
// (the cluster gateway) should drop the peer from its ring and re-route
// rather than keep dialing a dead shard.
var ErrPeerUnreachable = errors.New("wire: peer unreachable")

// PeerUnreachableError is the typed error for a refused connection;
// errors.As exposes which peer was down.
type PeerUnreachableError struct {
	// Peer is the base URL of the unreachable server.
	Peer string
	Path string
	// Err is the underlying transport error.
	Err error
}

func (e *PeerUnreachableError) Error() string {
	return fmt.Sprintf("wire: %s%s: peer unreachable: %v", e.Peer, e.Path, e.Err)
}

// Unwrap exposes the transport error.
func (e *PeerUnreachableError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrPeerUnreachable) match.
func (e *PeerUnreachableError) Is(target error) bool { return target == ErrPeerUnreachable }

// ErrBodyTooLarge matches 413 body-size rejections with errors.Is.
// The server's cap does not move between attempts, so resending the
// same payload can only be rejected again: these are terminal, never
// retried. The caller's remedy is to shrink the payload (smaller ingest
// batches, fewer items), not to wait.
var ErrBodyTooLarge = errors.New("wire: request body too large")

// BodyTooLargeError is the typed error for a 413 rejection; errors.As
// exposes the server's explanation (which names its byte cap).
type BodyTooLargeError struct {
	Path    string
	Message string
}

func (e *BodyTooLargeError) Error() string {
	return fmt.Sprintf("wire: %s: body too large: %s", e.Path, e.Message)
}

// Is makes errors.Is(err, ErrBodyTooLarge) match.
func (e *BodyTooLargeError) Is(target error) bool { return target == ErrBodyTooLarge }

// ErrOverloaded matches 503 admission sheds with errors.Is. Unlike a
// budget denial, an overload clears as soon as the present wave drains,
// so these are transient: the client retries them, sleeping at most the
// server's Retry-After hint.
var ErrOverloaded = errors.New("wire: server overloaded")

// OverloadedError is the typed error for a 503 shed; errors.As exposes
// the server's Retry-After hint.
type OverloadedError struct {
	Path    string
	Message string
	// RetryAfter is the parsed Retry-After header; 0 when absent.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("wire: %s: overloaded: %s", e.Path, e.Message)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Client metric names recorded in the registry passed via
// WithClientMetrics.
const (
	// MetricClientAttempts counts every HTTP attempt, including retries.
	MetricClientAttempts = "client.attempts"
	// MetricClientRetries counts retried attempts only.
	MetricClientRetries = "client.retries"
	// MetricClientFailures counts requests that exhausted their retries.
	MetricClientFailures = "client.failures"
)

// clientCore holds the transport policy shared by GSPClient and
// LBSClient: per-attempt timeout, bounded retries with exponential
// backoff and jitter on transient failures, and metrics.
type clientCore struct {
	base string
	hc   *http.Client

	retries     int           // extra attempts after the first
	timeout     time.Duration // per-attempt; 0 = rely on hc / ctx
	backoffBase time.Duration
	backoffMax  time.Duration
	reg         *obs.Registry // nil disables client metrics
	principal   string        // X-Principal header; "" omits it

	signPrincipal string // identity requests are signed as; "" disables
	signKey       []byte // HMAC-SHA256 key for signPrincipal
}

// ClientOption customizes a GSPClient or LBSClient.
type ClientOption func(*clientCore)

// WithRetries sets how many times a transient failure (connection error,
// timeout, or 5xx) is retried after the first attempt (default 0 — the
// pre-hardening behavior). 4xx replies — including 429 budget denials,
// which no backoff window can refill — are never retried.
func WithRetries(n int) ClientOption {
	return func(c *clientCore) {
		if n >= 0 {
			c.retries = n
		}
	}
}

// WithRequestTimeout bounds each attempt (not the whole call, which the
// caller's context bounds). 0 disables the per-attempt bound.
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(c *clientCore) {
		if d >= 0 {
			c.timeout = d
		}
	}
}

// WithBackoff sets the exponential backoff's base and cap (defaults
// 50ms and 2s). Sleep before retry k is base<<k with equal jitter,
// capped at max.
func WithBackoff(base, max time.Duration) ClientOption {
	return func(c *clientCore) {
		if base > 0 {
			c.backoffBase = base
		}
		if max > 0 {
			c.backoffMax = max
		}
	}
}

// WithClientMetrics records attempt/retry/failure counters into reg —
// pass the same registry the server side exposes at /v1/metrics to see
// client resilience next to server traffic.
func WithClientMetrics(reg *obs.Registry) ClientOption {
	return func(c *clientCore) { c.reg = reg }
}

// WithPrincipal sends the X-Principal header on every request, naming
// the identity a budget-enforcing LBS charges for each release
// (overriding the release's userId fallback).
func WithPrincipal(principal string) ClientOption {
	return func(c *clientCore) { c.principal = principal }
}

// WithSigningKey signs every request as principal with the given
// HMAC-SHA256 key (see SignRequest for the format) — required against a
// server running WithAuth. Signing happens per attempt with a fresh
// nonce, so retries are never self-rejected as replays. The key is
// copied.
func WithSigningKey(principal string, key []byte) ClientOption {
	return func(c *clientCore) {
		c.signPrincipal = principal
		c.signKey = bytes.Clone(key)
	}
}

func newClientCore(baseURL string, hc *http.Client, opts []ClientOption) clientCore {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := clientCore{
		base:        baseURL,
		hc:          hc,
		backoffBase: 50 * time.Millisecond,
		backoffMax:  2 * time.Second,
	}
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

func (c *clientCore) count(name string) {
	if c.reg != nil {
		c.reg.Counter(name).Inc()
	}
}

// do performs one logical request with the retry policy. body may be nil
// (GET); non-nil bodies are replayed from the byte slice on retry, so
// POSTs are retried too — the wire API's writes are idempotent per
// (user, release) history-append semantics, and at-least-once delivery
// is the price of resilience.
func (c *clientCore) do(ctx context.Context, method, path string, params url.Values, body []byte, out any) error {
	return c.doCT(ctx, method, path, params, body, "application/json", out)
}

// doCT is do with an explicit request content type (the NDJSON ingest
// stream is the one non-JSON body on the wire).
func (c *clientCore) doCT(ctx context.Context, method, path string, params url.Values, body []byte, contentType string, out any) error {
	u := c.base + path
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	var lastErr error
	refused := 0
	for attempt := 0; ; attempt++ {
		c.count(MetricClientAttempts)
		retryable, err := c.attempt(ctx, method, u, path, body, contentType, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if errors.Is(err, ErrPeerUnreachable) {
			// Connection refused: transient enough for one retry (a server
			// mid-restart comes back in milliseconds), terminal after — a
			// dead peer stays dead across any backoff schedule, and burning
			// the whole retry budget on it starves the caller's deadline.
			// The typed error survives as the eviction hint.
			if refused++; refused > 1 {
				break
			}
		}
		if !retryable || attempt >= c.retries {
			break
		}
		// A 503 shed carries the server's Retry-After hint: capacity
		// frees as the admitted wave drains, so sleep min(hint, backoff)
		// rather than stacking a full exponential delay on top.
		var hint time.Duration
		var overloaded *OverloadedError
		if errors.As(err, &overloaded) {
			hint = overloaded.RetryAfter
		}
		if err := c.sleepBackoff(ctx, attempt, hint); err != nil {
			// The caller's context ended while we waited; report the
			// last attempt's error, which is what the deadline killed.
			break
		}
		c.count(MetricClientRetries)
	}
	c.count(MetricClientFailures)
	return lastErr
}

// attempt performs one HTTP exchange. The returned bool reports whether
// the failure is transient (worth retrying).
func (c *clientCore) attempt(ctx context.Context, method, u, path string, body []byte, contentType string, out any) (bool, error) {
	actx := ctx
	if c.timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, u, rd)
	if err != nil {
		return false, fmt.Errorf("wire: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if c.principal != "" {
		req.Header.Set(HeaderPrincipal, c.principal)
	}
	if c.signPrincipal != "" {
		// Sign inside the attempt, not once per logical request: the
		// server's replay cache spends each nonce, so a retry must carry
		// a fresh one (and a fresh timestamp) to be admissible.
		if err := SignRequest(req, body, c.signPrincipal, c.signKey, time.Now(), newNonce()); err != nil {
			return false, fmt.Errorf("wire: sign request: %w", err)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Transport-level failure (refused, reset, timeout). Retry
		// unless the caller's own context is done. A refused connection
		// is classified separately: do() caps it at one retry and the
		// typed error carries the peer-eviction hint.
		if errors.Is(err, syscall.ECONNREFUSED) {
			return ctx.Err() == nil, &PeerUnreachableError{Peer: c.base, Path: path, Err: err}
		}
		return ctx.Err() == nil, fmt.Errorf("wire: %s: %w", path, err)
	}
	defer drainClose(resp.Body)
	if err := decodeReply(resp, path, out); err != nil {
		// Only 5xx is transient. 429 means the privacy budget is denied —
		// a state no backoff window refills, and each retry would burn an
		// attempt (and server work) for a guaranteed second denial — so it
		// is terminal like the rest of 4xx, as are decode failures.
		transient := resp.StatusCode/100 == 5
		return transient && ctx.Err() == nil, err
	}
	return false, nil
}

// sleepBackoff waits backoffDelay(attempt, hint), or returns early when
// ctx ends.
func (c *clientCore) sleepBackoff(ctx context.Context, attempt int, hint time.Duration) error {
	t := time.NewTimer(c.backoffDelay(attempt, hint))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoffDelay is base<<attempt with equal jitter (half fixed, half
// uniform), capped at the configured max. A positive hint (the server's
// Retry-After on a shed) only ever shortens the sleep: the server knows
// how fast its queue drains better than an exponential schedule does.
func (c *clientCore) backoffDelay(attempt int, hint time.Duration) time.Duration {
	d := c.backoffBase << uint(attempt)
	if d > c.backoffMax || d <= 0 {
		d = c.backoffMax
	}
	d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
	if hint > 0 && hint < d {
		d = hint
	}
	return d
}

// drainClose consumes what remains of a response body before closing so
// the transport can reuse the connection, and so fault-injection tests
// can assert no body is ever leaked.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<18))
	body.Close()
}

// GSPClient is the mobile user's client for a GSP server.
type GSPClient struct {
	core clientCore
}

// NewGSPClient returns a client for the GSP at baseURL. hc may be nil to
// use http.DefaultClient (callers running against real networks should
// pass a client with timeouts or use WithRequestTimeout). Options add
// retry, timeout, and metrics policies.
func NewGSPClient(baseURL string, hc *http.Client, opts ...ClientOption) *GSPClient {
	return &GSPClient{core: newClientCore(baseURL, hc, opts)}
}

// Stats fetches the city description.
func (c *GSPClient) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.core.do(ctx, http.MethodGet, PathStats, nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Query fetches the POIs within radius r of l (the paper's Query(l, r)).
func (c *GSPClient) Query(ctx context.Context, l geo.Point, r float64) ([]poi.POI, error) {
	var out QueryResponse
	if err := c.core.do(ctx, http.MethodGet, PathQuery, locationParams(l, r), nil, &out); err != nil {
		return nil, err
	}
	return out.POIs, nil
}

// Freq fetches the POI type frequency vector within radius r of l (the
// paper's Freq(l, r)).
func (c *GSPClient) Freq(ctx context.Context, l geo.Point, r float64) (poi.FreqVector, error) {
	var out FreqResponse
	if err := c.core.do(ctx, http.MethodGet, PathFreq, locationParams(l, r), nil, &out); err != nil {
		return nil, err
	}
	return out.Freq, nil
}

// ClusterJoin asks a cluster gateway to admit the shard at peerURL and
// returns the post-join membership. The gateway probes the shard's
// readiness and checks that it serves the fleet's city before it takes
// ownership; under auth the caller must sign as the gateway's admin
// principal.
func (c *GSPClient) ClusterJoin(ctx context.Context, peerURL string) (*ClusterPeersResponse, error) {
	body, err := json.Marshal(ClusterJoinRequest{URL: peerURL})
	if err != nil {
		return nil, fmt.Errorf("wire: marshal cluster join: %w", err)
	}
	var out ClusterPeersResponse
	if err := c.core.do(ctx, http.MethodPost, PathClusterPeers, nil, body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ClusterLeave retires the shard at peerURL from a cluster gateway and
// returns the post-leave membership. Tenant rules as ClusterJoin.
func (c *GSPClient) ClusterLeave(ctx context.Context, peerURL string) (*ClusterPeersResponse, error) {
	var out ClusterPeersResponse
	path := PathClusterPeers + "/" + url.PathEscape(peerURL)
	if err := c.core.do(ctx, http.MethodDelete, path, nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func locationParams(l geo.Point, r float64) url.Values {
	v := url.Values{}
	v.Set("x", strconv.FormatFloat(l.X, 'f', -1, 64))
	v.Set("y", strconv.FormatFloat(l.Y, 'f', -1, 64))
	v.Set("r", strconv.FormatFloat(r, 'f', -1, 64))
	return v
}

// LBSClient is the user's client for an LBS application server.
type LBSClient struct {
	core clientCore
}

// NewLBSClient returns a client for the LBS app at baseURL.
func NewLBSClient(baseURL string, hc *http.Client, opts ...ClientOption) *LBSClient {
	return &LBSClient{core: newClientCore(baseURL, hc, opts)}
}

// Release posts a POI-aggregate release.
func (c *LBSClient) Release(ctx context.Context, rel ReleaseRequest) (*ReleaseResponse, error) {
	body, err := json.Marshal(rel)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal release: %w", err)
	}
	var out ReleaseResponse
	if err := c.core.do(ctx, http.MethodPost, PathRelease, nil, body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// BudgetStatus fetches a principal's privacy-budget accounting from a
// budget-enforced LBS server (admin endpoint). On an authenticated
// server, principal must equal the client's signing principal — the
// endpoints are tenant-isolated, and a mismatch is a 403.
func (c *LBSClient) BudgetStatus(ctx context.Context, principal string) (*BudgetState, error) {
	var out BudgetState
	path := PathBudget + "/" + url.PathEscape(principal)
	if err := c.core.do(ctx, http.MethodGet, path, nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// BudgetReset zeroes a principal's privacy-budget accounting (admin
// endpoint) and returns the post-reset state. Tenant-isolated under
// auth, like BudgetStatus.
func (c *LBSClient) BudgetReset(ctx context.Context, principal string) (*BudgetState, error) {
	var out BudgetState
	path := PathBudget + "/" + url.PathEscape(principal) + "/reset"
	if err := c.core.do(ctx, http.MethodPost, path, nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ingest streams a batch of check-in events to a streaming-enabled LBS
// server as NDJSON (one JSON event per line) and returns the server's
// per-event accounting. Delivery is at-least-once under retries — the
// whole batch is replayed on a transient failure — but application is
// effectively-once within the window: events without an ID get one
// stamped from a per-call batch id before the body is built, the
// retried body resends those ids verbatim, and the window store applies
// each id once (replays come back in the response's Deduped count). A
// 413 reply maps to BodyTooLargeError — split the batch rather than
// resend it.
func (c *LBSClient) Ingest(ctx context.Context, events []stream.Event) (*IngestResponse, error) {
	batch := strconv.FormatUint(rand.Uint64(), 16) + strconv.FormatUint(rand.Uint64(), 16)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, ev := range events {
		if ev.ID == "" {
			ev.ID = batch + "/" + strconv.Itoa(i)
		}
		if err := enc.Encode(ev); err != nil {
			return nil, fmt.Errorf("wire: marshal ingest event %d: %w", i, err)
		}
	}
	var out IngestResponse
	if err := c.core.doCT(ctx, http.MethodPost, PathIngest, nil, buf.Bytes(), "application/x-ndjson", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StreamReleases fetches the most recent n windowed DP releases (all
// retained history when n <= 0), oldest first.
func (c *LBSClient) StreamReleases(ctx context.Context, n int) (*StreamReleasesResponse, error) {
	var v url.Values
	if n > 0 {
		v = url.Values{}
		v.Set("n", strconv.Itoa(n))
	}
	var out StreamReleasesResponse
	if err := c.core.do(ctx, http.MethodGet, PathStreamReleases, v, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Releases fetches a user's stored release history.
func (c *LBSClient) Releases(ctx context.Context, userID string) (*ReleasesResponse, error) {
	v := url.Values{}
	v.Set("user", userID)
	var out ReleasesResponse
	if err := c.core.do(ctx, http.MethodGet, PathReleases, v, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Error-body read limits: JSON error envelopes are structured documents
// the client wants whole (a batch 400 can legitimately carry hundreds
// of per-item messages), so they get a generous cap; anything else —
// HTML error pages from intermediaries, plain text — is only quoted
// into an error string and stays tightly bounded.
const (
	errBodyLimit     = 4096
	errBodyLimitJSON = 1 << 20
)

// readErrBody reads a non-2xx body up to its content-type's limit and
// reports whether it was cut off mid-document.
func readErrBody(resp *http.Response) (body []byte, truncated bool, err error) {
	limit := errBodyLimit
	if ct := resp.Header.Get("Content-Type"); strings.Contains(ct, "application/json") {
		limit = errBodyLimitJSON
	}
	body, err = io.ReadAll(io.LimitReader(resp.Body, int64(limit)+1))
	if len(body) > limit {
		return body[:limit], true, err
	}
	return body, false, err
}

// retryAfterOf parses an integer-seconds Retry-After header; 0 when
// absent or unparseable (the HTTP-date form is not worth supporting for
// our own servers, which always send seconds).
func retryAfterOf(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// decodeReply maps non-2xx replies to errors and decodes 2xx bodies.
func decodeReply(resp *http.Response, path string, out any) error {
	if resp.StatusCode/100 != 2 {
		msg := resp.Status
		body, truncated, readErr := readErrBody(resp)
		if resp.StatusCode == http.StatusTooManyRequests {
			denied := &BudgetDeniedError{Path: path, Message: msg}
			var errResp BudgetErrorResponse
			if readErr == nil && json.Unmarshal(body, &errResp) == nil {
				if errResp.Error != "" {
					denied.Message = errResp.Error
				}
				denied.State = errResp.Budget
			}
			return denied
		}
		if resp.StatusCode == http.StatusUnauthorized {
			unauth := &UnauthorizedError{Path: path, Message: msg}
			var errResp AuthErrorResponse
			if readErr == nil && json.Unmarshal(body, &errResp) == nil {
				if errResp.Error != "" {
					// Error() re-prefixes "unauthorized: ", so strip the
					// server's copy rather than stutter.
					unauth.Message = strings.TrimPrefix(errResp.Error, "unauthorized: ")
				}
				unauth.Reason = errResp.Reason
			}
			return unauth
		}
		var errResp ErrorResponse
		switch {
		case readErr == nil && json.Unmarshal(body, &errResp) == nil && errResp.Error != "":
			msg = errResp.Error
		case truncated:
			// A clipped JSON document no longer unmarshals; say so
			// cleanly instead of surfacing a raw syntax error or
			// silently dropping the body.
			msg = fmt.Sprintf("%s (error body truncated at %d bytes)", resp.Status, len(body))
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			return &OverloadedError{Path: path, Message: msg, RetryAfter: retryAfterOf(resp)}
		}
		if resp.StatusCode == http.StatusRequestEntityTooLarge {
			return &BodyTooLargeError{Path: path, Message: msg}
		}
		if resp.StatusCode/100 == 4 {
			return fmt.Errorf("%w: %s: %s", ErrBadRequest, path, msg)
		}
		return fmt.Errorf("wire: %s: server error: %s", path, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("wire: %s: decode: %w", path, err)
	}
	return nil
}
