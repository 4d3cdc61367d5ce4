package wire

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poiagg/internal/obs"
)

// Request signing closes the wire stack's identity hole: the budget
// ledger and admission layers key on a principal, and until now that
// principal was whatever the client asserted in an X-Principal header —
// any tenant could drain or evade any other tenant's (ε, δ) budget.
// With WithAuth every request carries an HMAC-SHA256 signature over a
// canonical string binding method, path, query, body, principal,
// timestamp, and nonce to a key only that principal holds; the servers
// verify in constant time, reject replays through a nonce cache bounded
// by a timestamp window, and hand the *verified* principal to the
// layers downstream. The client signs transparently when configured
// with WithSigningKey.

// HeaderAuth carries the request signature. Its value is
//
//	POIAGG1 principal=<p>,ts=<unix-seconds>,nonce=<hex>,sig=<hex>
//
// where sig is hex(HMAC-SHA256(key, canonical string)); see
// canonicalString for what is signed.
const HeaderAuth = "X-Auth"

// authScheme tags the signature format so it can evolve; anything else
// in the scheme position is rejected as malformed.
const authScheme = "POIAGG1"

// DefaultAuthWindow bounds how far a signed request's timestamp may lie
// from the server clock, in either direction. It also bounds how long a
// nonce must be remembered: past the window a replay fails the
// timestamp check before the cache is ever consulted.
const DefaultAuthWindow = 2 * time.Minute

// DefaultAuthNonceCap bounds the replay cache's resident entries.
const DefaultAuthNonceCap = 1 << 20

// MinKeyBytes is the smallest accepted signing key. HMAC-SHA256 keys
// below the hash's block size lose nothing structurally, but a short
// key invites brute force; 16 bytes is the floor, 32 the recommendation.
const MinKeyBytes = 16

// maxPrincipalLen bounds principal names (header and canonical-string
// hygiene; also keeps the keyring's memory per entry predictable).
const maxPrincipalLen = 128

// Nonce hex-length bounds: at least 8 hex chars (32 bits — enough to
// make accidental collisions within a window implausible for honest
// clients), at most 64 (a full SHA-256 worth; anything longer is bloat).
const (
	minNonceHex = 8
	maxNonceHex = 64
)

// Auth metric names exported on the owning server's registry.
const (
	// MetricAuthOK counts requests whose signature verified.
	MetricAuthOK = "auth.ok"
	// MetricAuthRejected counts requests rejected for any reason other
	// than a replayed nonce: missing/malformed signature, unknown
	// principal, bad signature, timestamp outside the window.
	MetricAuthRejected = "auth.rejected"
	// MetricAuthReplay counts correctly signed requests rejected because
	// their nonce was already spent.
	MetricAuthReplay = "auth.replay"
	// MetricAuthUnknownPrincipal counts the subset of auth.rejected whose
	// claimed principal has no registered key. The split lives ONLY here:
	// the 401 body reports bad_signature for unknown and wrong-key alike,
	// so an unauthenticated caller cannot enumerate which principals
	// exist, while operators still see key-provisioning problems.
	MetricAuthUnknownPrincipal = "auth.unknown_principal"
)

// AuthErrorResponse is the structured body of every 401 rejection, and
// of the budget admin endpoints' 403 when a verified tenant acts on
// another tenant's budget.
type AuthErrorResponse struct {
	Error string `json:"error"`
	// Reason is one of "missing_signature", "malformed_signature",
	// "bad_signature", "stale_timestamp", "replay" (401), or
	// "principal_mismatch" (403). An unknown principal reports
	// bad_signature, indistinguishable from a wrong key — the existence
	// of a principal is not disclosed to unauthenticated callers.
	Reason string `json:"reason"`
}

// authReason classifies why a request failed verification.
type authReason string

const (
	authMissing   authReason = "missing_signature"
	authMalformed authReason = "malformed_signature"
	// authUnknownPrincipal is internal-only (metrics): externally it is
	// reported as authBadSignature so 401 bodies are not a
	// principal-enumeration oracle.
	authUnknownPrincipal authReason = "unknown_principal"
	authBadSignature     authReason = "bad_signature"
	authStale            authReason = "stale_timestamp"
	authReplay           authReason = "replay"
	// authPrincipalMismatch is the 403 reason when a signature-verified
	// principal addresses a budget admin endpoint for a different tenant.
	authPrincipalMismatch authReason = "principal_mismatch"
)

// validPrincipal restricts principal names to a charset that cannot
// break the auth header's key=value,... grammar or the newline-joined
// canonical string: printable ASCII minus space, comma, equals.
func validPrincipal(p string) bool {
	if p == "" || len(p) > maxPrincipalLen {
		return false
	}
	for i := 0; i < len(p); i++ {
		c := p[i]
		if c <= ' ' || c > '~' || c == ',' || c == '=' {
			return false
		}
	}
	return true
}

// validNonce accepts lowercase-hex nonces within the length bounds.
func validNonce(n string) bool {
	if len(n) < minNonceHex || len(n) > maxNonceHex {
		return false
	}
	for i := 0; i < len(n); i++ {
		c := n[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Keyring is the server's in-memory key registry, keyed by principal.
// Safe for concurrent use; daemons populate it at startup from
// -auth-keys and hand it to WithAuth.
type Keyring struct {
	mu   sync.RWMutex
	keys map[string][]byte
}

// NewKeyring returns an empty keyring.
func NewKeyring() *Keyring {
	return &Keyring{keys: make(map[string][]byte)}
}

// Add registers a principal's signing key, replacing any previous key.
// The principal must satisfy the header charset (printable ASCII, no
// comma/equals/whitespace, ≤128 bytes) and the key must be at least
// MinKeyBytes long. The key is copied.
func (k *Keyring) Add(principal string, key []byte) error {
	if !validPrincipal(principal) {
		return fmt.Errorf("wire: invalid principal %q", principal)
	}
	if len(key) < MinKeyBytes {
		return fmt.Errorf("wire: key for %q is %d bytes, need at least %d",
			principal, len(key), MinKeyBytes)
	}
	k.mu.Lock()
	k.keys[principal] = bytes.Clone(key)
	k.mu.Unlock()
	return nil
}

// Len returns the number of registered principals.
func (k *Keyring) Len() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.keys)
}

// lookup returns the principal's key, or nil.
func (k *Keyring) lookup(principal string) []byte {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.keys[principal]
}

// LoadKeyring parses a key-provisioning spec: either a comma-separated
// inline list "alice=<hexkey>,bob=<hexkey>", or "@/path/to/file" where
// the file holds one principal=hexkey pair per line (blank lines and
// #-comments ignored) — the form that keeps secrets out of `ps` output.
func LoadKeyring(spec string) (*Keyring, error) {
	kr := NewKeyring()
	var pairs []string
	if rest, ok := strings.CutPrefix(spec, "@"); ok {
		data, err := os.ReadFile(rest)
		if err != nil {
			return nil, fmt.Errorf("wire: read key file: %w", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			pairs = append(pairs, line)
		}
	} else {
		pairs = strings.Split(spec, ",")
	}
	for _, pair := range pairs {
		principal, key, err := ParseSigningKey(pair)
		if err != nil {
			return nil, err
		}
		if err := kr.Add(principal, key); err != nil {
			return nil, err
		}
	}
	if kr.Len() == 0 {
		return nil, errors.New("wire: key spec names no principals")
	}
	return kr, nil
}

// ParseSigningKey parses one "principal=hexkey" pair — the -auth-key
// client flag and each entry of a server key spec.
func ParseSigningKey(pair string) (string, []byte, error) {
	principal, hexKey, ok := strings.Cut(strings.TrimSpace(pair), "=")
	if !ok {
		return "", nil, fmt.Errorf("wire: key entry %q is not principal=hexkey", pair)
	}
	key, err := hex.DecodeString(hexKey)
	if err != nil {
		return "", nil, fmt.Errorf("wire: key for %q is not hex: %v", principal, err)
	}
	if !validPrincipal(principal) {
		return "", nil, fmt.Errorf("wire: invalid principal %q", principal)
	}
	if len(key) < MinKeyBytes {
		return "", nil, fmt.Errorf("wire: key for %q is %d bytes, need at least %d",
			principal, len(key), MinKeyBytes)
	}
	return principal, key, nil
}

// canonicalString is the exact byte sequence signed: newline-joined
// fields, none of which may contain a newline (the principal and nonce
// charsets forbid it; method and path come from the HTTP layer, which
// rejects control characters; the query is re-encoded and the body is
// hashed). The leading scheme tag means a future format change can
// never collide with this one.
//
//	POIAGG1 \n METHOD \n path \n canonical-query \n hex(sha256(body))
//	\n principal \n ts \n nonce
//
// The query is canonicalized by parse → url.Values.Encode (sorted keys,
// percent-encoding normalized) on both sides, so signer and verifier
// agree regardless of the order the client assembled parameters in.
func canonicalString(method, path, rawQuery string, bodySum [sha256.Size]byte, principal string, ts int64, nonce string) string {
	q, err := url.ParseQuery(rawQuery)
	canonQ := ""
	if err == nil {
		canonQ = q.Encode()
	} else {
		// An unparseable query still gets signed — as its raw form, so
		// any tampering is still detected.
		canonQ = rawQuery
	}
	return strings.Join([]string{
		authScheme,
		method,
		path,
		canonQ,
		hex.EncodeToString(bodySum[:]),
		principal,
		strconv.FormatInt(ts, 10),
		nonce,
	}, "\n")
}

// computeSig returns hex(HMAC-SHA256(key, canonical)).
func computeSig(key []byte, canonical string) string {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte(canonical))
	return hex.EncodeToString(mac.Sum(nil))
}

// SignRequest computes the signature for req (with body as its payload;
// nil means empty) and sets the HeaderAuth header. Callers that want
// transparent signing use the client's WithSigningKey instead; this is
// the building block for tests and third-party clients.
func SignRequest(req *http.Request, body []byte, principal string, key []byte, ts time.Time, nonce string) error {
	if !validPrincipal(principal) {
		return fmt.Errorf("wire: invalid signing principal %q", principal)
	}
	if len(key) < MinKeyBytes {
		return fmt.Errorf("wire: signing key is %d bytes, need at least %d", len(key), MinKeyBytes)
	}
	if !validNonce(nonce) {
		return fmt.Errorf("wire: invalid nonce %q", nonce)
	}
	unix := ts.Unix()
	canonical := canonicalString(req.Method, req.URL.Path, req.URL.RawQuery,
		sha256.Sum256(body), principal, unix, nonce)
	req.Header.Set(HeaderAuth, fmt.Sprintf("%s principal=%s,ts=%d,nonce=%s,sig=%s",
		authScheme, principal, unix, nonce, computeSig(key, canonical)))
	return nil
}

// newNonce returns 16 random bytes as lowercase hex.
func newNonce() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable process state; the
		// stdlib itself panics in this situation (rand.Int).
		panic("wire: crypto/rand: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// authHeader is a parsed HeaderAuth value.
type authHeader struct {
	principal string
	ts        int64
	nonce     string
	sig       string
}

// parseAuthHeader parses and strictly validates a HeaderAuth value:
// exact scheme, exactly the four known fields once each, charset-checked
// principal and nonce, decimal timestamp, 64-hex-char signature.
// Anything else is malformed — a parser this small has no lenient mode
// for attackers to hide in.
func parseAuthHeader(v string) (authHeader, error) {
	rest, ok := strings.CutPrefix(v, authScheme+" ")
	if !ok {
		return authHeader{}, fmt.Errorf("scheme is not %s", authScheme)
	}
	var h authHeader
	var seen [4]bool
	for _, field := range strings.Split(rest, ",") {
		name, val, ok := strings.Cut(field, "=")
		if !ok {
			return authHeader{}, fmt.Errorf("field %q is not name=value", field)
		}
		switch name {
		case "principal":
			if seen[0] || !validPrincipal(val) {
				return authHeader{}, errors.New("bad principal field")
			}
			seen[0], h.principal = true, val
		case "ts":
			ts, err := strconv.ParseInt(val, 10, 64)
			if seen[1] || err != nil || ts <= 0 {
				return authHeader{}, errors.New("bad ts field")
			}
			seen[1], h.ts = true, ts
		case "nonce":
			if seen[2] || !validNonce(val) {
				return authHeader{}, errors.New("bad nonce field")
			}
			seen[2], h.nonce = true, val
		case "sig":
			if seen[3] || len(val) != 2*sha256.Size || !validNonce(val[:maxNonceHex]) {
				return authHeader{}, errors.New("bad sig field")
			}
			seen[3], h.sig = true, val
		default:
			return authHeader{}, fmt.Errorf("unknown field %q", name)
		}
	}
	if !(seen[0] && seen[1] && seen[2] && seen[3]) {
		return authHeader{}, errors.New("missing field")
	}
	return h, nil
}

// nonceEntry pairs a cache key with the instant it stops mattering.
type nonceEntry struct {
	key    string
	expiry time.Time
}

// nonceCache remembers spent (principal, nonce) pairs until their
// request's timestamp falls out of the verification window — after
// which a replay is rejected as stale before the cache is consulted, so
// forgetting the nonce then is safe. Expiry sweeping is amortized over
// inserts from the FIFO front (entries expire in near-arrival order
// because expiry = claimed ts + window and claimed ts is within ±window
// of arrival); past cap, the oldest entries are evicted early — a
// bounded-memory tradeoff that can only shorten, never extend, the
// replay horizon.
type nonceCache struct {
	mu   sync.Mutex
	seen map[string]time.Time // key → expiry
	fifo []nonceEntry
	cap  int
}

func newNonceCache(cap int) *nonceCache {
	if cap < 1 {
		cap = DefaultAuthNonceCap
	}
	return &nonceCache{seen: make(map[string]time.Time), cap: cap}
}

// insert records key until expiry and reports whether it was fresh;
// false means a live entry already existed — a replay.
func (c *nonceCache) insert(key string, now, expiry time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Sweep expired entries from the front; eviction order tracks
	// insertion order closely enough that this stays amortized O(1).
	for len(c.fifo) > 0 && !c.fifo[0].expiry.After(now) {
		if e, ok := c.seen[c.fifo[0].key]; ok && !e.After(now) {
			delete(c.seen, c.fifo[0].key)
		}
		c.fifo = c.fifo[1:]
	}
	if prev, ok := c.seen[key]; ok && prev.After(now) {
		return false
	}
	for len(c.seen) >= c.cap && len(c.fifo) > 0 {
		// Mirror the sweep's guard: a fifo slot owns its map entry only
		// while the expiries match. A stale duplicate left mid-queue by a
		// re-inserted key (expiries are not monotone in FIFO order, and
		// `now` itself can step backwards — wall clocks do) must not evict
		// the live entry and open that nonce to an in-window replay; skip
		// it and evict the next real owner instead.
		if e, ok := c.seen[c.fifo[0].key]; ok && (e.Equal(c.fifo[0].expiry) || !e.After(now)) {
			delete(c.seen, c.fifo[0].key)
		}
		c.fifo = c.fifo[1:]
	}
	c.seen[key] = expiry
	c.fifo = append(c.fifo, nonceEntry{key: key, expiry: expiry})
	return true
}

// len reports resident entries (tests).
func (c *nonceCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}

// authenticator verifies signed requests for one server.
type authenticator struct {
	keys   *Keyring
	window time.Duration
	clock  func() time.Time
	nonces *nonceCache
	// dummyKey absorbs the HMAC computation for unknown principals so
	// the unknown-vs-wrong-key paths cost the same work.
	dummyKey []byte

	ok        atomic.Uint64
	rejected  atomic.Uint64
	replay    atomic.Uint64
	unknownPr atomic.Uint64
}

// AuthOption customizes WithAuth.
type AuthOption func(*authenticator)

// WithAuthWindow sets the timestamp validity window (default
// DefaultAuthWindow). A signed request whose ts differs from the server
// clock by more than the window — in either direction — is rejected.
func WithAuthWindow(d time.Duration) AuthOption {
	return func(a *authenticator) {
		if d > 0 {
			a.window = d
		}
	}
}

// WithAuthClock injects the verifier's time source (default time.Now) —
// the same deterministic-test pattern as budget.WithClock, so the
// stale-timestamp and replay-horizon tests never sleep.
func WithAuthClock(clock func() time.Time) AuthOption {
	return func(a *authenticator) {
		if clock != nil {
			a.clock = clock
		}
	}
}

func newAuthenticator(keys *Keyring, opts ...AuthOption) *authenticator {
	a := &authenticator{
		keys:     keys,
		window:   DefaultAuthWindow,
		clock:    time.Now,
		nonces:   newNonceCache(DefaultAuthNonceCap),
		dummyKey: []byte(newNonce() + newNonce()),
	}
	for _, opt := range opts {
		opt(a)
	}
	return a
}

// export publishes the auth counters into reg.
func (a *authenticator) export(reg *obs.Registry) {
	reg.CounterFunc(MetricAuthOK, a.ok.Load)
	reg.CounterFunc(MetricAuthRejected, a.rejected.Load)
	reg.CounterFunc(MetricAuthReplay, a.replay.Load)
	reg.CounterFunc(MetricAuthUnknownPrincipal, a.unknownPr.Load)
}

// verifyRequest checks r's signature over body and returns the verified
// principal, or a rejection reason with a human message. The signature
// is checked before the timestamp and nonce, so the stale and replay
// classifications are only ever reported for authentically signed
// requests — an attacker without the key learns nothing about the
// window or the cache from the reasons.
func (a *authenticator) verifyRequest(r *http.Request, body []byte) (string, authReason, string) {
	v := r.Header.Get(HeaderAuth)
	if v == "" {
		return "", authMissing, "request is not signed (" + HeaderAuth + " missing)"
	}
	h, err := parseAuthHeader(v)
	if err != nil {
		return "", authMalformed, "malformed " + HeaderAuth + " header: " + err.Error()
	}
	key := a.keys.lookup(h.principal)
	unknown := key == nil
	if unknown {
		key = a.dummyKey
	}
	canonical := canonicalString(r.Method, r.URL.Path, r.URL.RawQuery,
		sha256.Sum256(body), h.principal, h.ts, h.nonce)
	want, err := hex.DecodeString(computeSig(key, canonical))
	if err != nil {
		return "", authBadSignature, "internal signature encoding error"
	}
	got, err := hex.DecodeString(h.sig)
	// Constant-time comparison (crypto/subtle): a byte-wise early exit
	// would let an attacker grow a forgery one byte at a time.
	equal := err == nil && subtle.ConstantTimeCompare(got, want) == 1
	if unknown {
		// Same message as the wrong-key branch on purpose: the dummy-key
		// HMAC equalizes the timing, and the identical response equalizes
		// the content — no principal-enumeration oracle. The internal
		// reason only routes the metric split.
		return "", authUnknownPrincipal, "signature does not match request"
	}
	if !equal {
		return "", authBadSignature, "signature does not match request"
	}
	now := a.clock()
	ts := time.Unix(h.ts, 0)
	if d := now.Sub(ts); d > a.window || d < -a.window {
		return "", authStale, fmt.Sprintf("timestamp %d outside ±%v window", h.ts, a.window)
	}
	// The nonce is spent only after the signature verified — otherwise
	// an attacker could burn a victim's nonces with forged requests.
	if !a.nonces.insert(h.principal+"\n"+h.nonce, now, ts.Add(a.window)) {
		return "", authReplay, fmt.Sprintf("nonce %s already used", h.nonce)
	}
	return h.principal, "", ""
}

// principalCtxKey carries the verified principal in the request context.
type principalCtxKey struct{}

// VerifiedPrincipal returns the signature-verified principal of a
// request that passed a WithAuth middleware, and whether one exists.
// When auth is enabled this is the only identity the budget and
// admission layers may trust; the X-Principal header is advisory at
// best and hostile at worst.
func VerifiedPrincipal(ctx context.Context) (string, bool) {
	p, ok := ctx.Value(principalCtxKey{}).(string)
	return p, ok
}

// count records a rejection under the right metric.
func (a *authenticator) count(reason authReason) {
	switch reason {
	case authReplay:
		a.replay.Add(1)
	case authUnknownPrincipal:
		a.rejected.Add(1)
		a.unknownPr.Add(1)
	default:
		a.rejected.Add(1)
	}
}

// externalReason maps an internal rejection class to the one disclosed
// in the 401 body: unknown principals are reported as bad_signature so
// an unauthenticated probe cannot learn which principals are
// registered; every other class passes through unchanged.
func externalReason(reason authReason) authReason {
	if reason == authUnknownPrincipal {
		return authBadSignature
	}
	return reason
}

// writeReject emits the 401 with the structured reason.
func writeAuthReject(w http.ResponseWriter, reason authReason, msg string) {
	writeJSON(w, http.StatusUnauthorized, AuthErrorResponse{
		Error:  "unauthorized: " + msg,
		Reason: string(reason),
	})
}

// writeAuthForbidden emits the 403 for an authenticated-but-unauthorized
// request (valid signature, wrong tenant).
func writeAuthForbidden(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusForbidden, AuthErrorResponse{
		Error:  "forbidden: " + msg,
		Reason: string(authPrincipalMismatch),
	})
}

// middleware verifies every request before it reaches the admission
// gate or any handler: a forged request costs one HMAC and is gone —
// it never occupies an admission slot, never touches the budget ledger,
// and never reaches a handler. The request body is read (bounded by
// maxBody, surfacing the same 413 as the handlers) to hash it into the
// canonical string, then restored for the handler. The pprof prefix is
// exempt like it is from admission: -pprof is an explicit operator
// opt-in and profiling tools cannot sign. The operational endpoints
// never reach this handler — obs.Instrument answers them upstream.
func (a *authenticator) middleware(next http.Handler, maxBody int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, PathPprof) {
			next.ServeHTTP(w, r)
			return
		}
		var body []byte
		if r.Body != nil {
			var err error
			body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
			if err != nil {
				if isMaxBytes(err) {
					writeBodyTooLarge(w, maxBody)
					return
				}
				writeError(w, http.StatusBadRequest, "unreadable request body")
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		principal, reason, msg := a.verifyRequest(r, body)
		if reason != "" {
			a.count(reason)
			writeAuthReject(w, externalReason(reason), msg)
			return
		}
		a.ok.Add(1)
		next.ServeHTTP(w, r.WithContext(
			context.WithValue(r.Context(), principalCtxKey{}, principal)))
	})
}

// WithAuth requires a valid request signature on every API route:
// clients sign with WithSigningKey, the server verifies against the
// keyring in constant time, rejects forgeries and tampering with 401 + a
// structured AuthErrorResponse, rejects timestamps outside the window and
// replayed nonces, and passes the verified principal downstream
// (VerifiedPrincipal) — when auth is on, the budget ledger charges only
// that identity and the X-Principal fallback chain is disabled.
// Operational endpoints (/healthz, /readyz, /v1/metrics) and the opt-in
// pprof prefix stay unsigned. A nil or empty keyring disables auth (the
// default), leaving every flow byte-identical to an unauthenticated
// server. All three servers read it.
func WithAuth(kr *Keyring, opts ...AuthOption) ServerOption {
	return func(st *serverSettings) { st.authKeys, st.authOpts = kr, opts }
}
