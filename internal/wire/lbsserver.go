package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"poiagg/internal/attack"
	"poiagg/internal/budget"
	"poiagg/internal/gsp"
	"poiagg/internal/poi"
	"poiagg/internal/stream"
)

// Auditor examines an incoming release. The LBS application is exactly
// the adversary of the threat model — it holds the user identity, the
// query range, and the public GSP — so an auditor wired to the attacks
// shows a service operator how identifying each accepted release is.
type Auditor interface {
	// Audit returns whether the release uniquely re-identifies its
	// location and the surviving candidate count.
	Audit(f poi.FreqVector, r float64) (reIdentified bool, candidates int)
}

// RegionAuditor audits with the region re-identification attack.
type RegionAuditor struct {
	Svc *gsp.Service
}

var _ Auditor = RegionAuditor{}

// Audit implements Auditor.
func (a RegionAuditor) Audit(f poi.FreqVector, r float64) (bool, int) {
	res := attack.Region(a.Svc, f, r)
	return res.Success, len(res.Candidates)
}

// LBSServer is the POI-based application service: it accepts frequency
// vector releases, stores a bounded per-user history, and optionally
// audits each release for re-identifiability. Like GSPServer it serves
// /v1/metrics, /healthz, and /readyz through its serverCore.
type LBSServer struct {
	serverCore
	lbsSettings
	m int // expected vector dimension

	mu      sync.Mutex
	history map[historyKey]*userHistory
	userQ   []historyKey // second-chance queue over stored users, front = oldest
}

// historyKey names one stored history: a userId within the principal
// that released under it. Two tenants may use the same userId, and each
// reads only its own.
type historyKey struct {
	principal, userID string
}

// lbsSettings are the settings only the LBS server reads.
type lbsSettings struct {
	auditor      Auditor // nil disables auditing
	historyLimit int     // stored releases per user
	historyUsers int     // distinct users with stored history

	// ledger, when set, charges (releaseEps, releaseDelta) per accepted
	// release and serves the /v1/budget admin endpoints.
	ledger       *budget.Ledger
	releaseEps   float64
	releaseDelta float64

	// streamStore/streamRel, when set, serve the live-ingestion surface:
	// POST /v1/ingest and GET /v1/stream/releases.
	streamStore *stream.Store
	streamRel   *stream.Releaser
}

// userHistory is one user's stored releases plus its second-chance bit.
type userHistory struct {
	rels    []ReleaseRequest
	touched bool
}

// MetricLBSHistoryUsers gauges the number of distinct users with stored
// history; bounded by WithHistoryUsers.
const MetricLBSHistoryUsers = "lbs.history_users"

// maxReleaseRadius rejects implausible release query ranges (meters),
// matching the GSP's default query cap.
const maxReleaseRadius = 10_000

// DefaultHistoryUsers caps distinct users with stored history unless
// WithHistoryUsers overrides it.
const DefaultHistoryUsers = 10_000

var _ http.Handler = (*LBSServer)(nil)

// WithAuditor enables release auditing. Only the LBS server reads it.
func WithAuditor(a Auditor) ServerOption {
	return func(st *serverSettings) { st.lbs.auditor = a }
}

// WithHistoryLimit caps stored releases per user (default 1000). Only
// the LBS server reads it.
func WithHistoryLimit(n int) ServerOption {
	return func(st *serverSettings) { st.lbs.historyLimit = n }
}

// WithHistoryUsers caps the number of distinct users with stored
// history (default DefaultHistoryUsers). Past the cap, the least
// recently active user is evicted second-chance style — a flood of
// unique userIds can no longer grow the history map without bound,
// while users that keep releasing (or being read) survive. Only the LBS
// server reads it.
func WithHistoryUsers(n int) ServerOption {
	return func(st *serverSettings) {
		if n > 0 {
			st.lbs.historyUsers = n
		}
	}
}

// WithBudget enforces a server-side privacy budget: every accepted
// POST /v1/release charges (eps, delta) — the per-release cost of the
// DP mechanism the deployment runs, e.g. Theorem 4's (ε, δ) — against
// the ledger, identified by the X-Principal header, ?principal= query
// parameter, or the release's userId, in that order. Exhausted
// principals get 429 with a BudgetErrorResponse body, and the
// /v1/budget/{principal} admin endpoints come alive. Ignored when led
// is nil or eps is not positive. The server does not own the ledger;
// the daemon closes a persistent one on shutdown. Only the LBS server
// reads it.
func WithBudget(led *budget.Ledger, eps, delta float64) ServerOption {
	return func(st *serverSettings) {
		if led == nil || eps <= 0 || delta < 0 {
			return
		}
		st.lbs.ledger, st.lbs.releaseEps, st.lbs.releaseDelta = led, eps, delta
	}
}

// NewLBSServer returns an LBS application server expecting frequency
// vectors of dimension m (the city's type count). It reads the core
// options, WithAuditor, WithHistoryLimit, WithHistoryUsers, WithBudget
// and WithStream.
func NewLBSServer(m int, opts ...ServerOption) *LBSServer {
	st := newSettings(nil, opts)
	s := &LBSServer{
		lbsSettings: st.lbs,
		m:           m,
		history:     make(map[historyKey]*userHistory),
	}
	s.initCore(st, nil)
	s.mux.HandleFunc("POST "+PathRelease, s.handleRelease)
	s.mux.HandleFunc("GET "+PathReleases, s.handleReleases)
	if s.ledger != nil {
		s.mux.HandleFunc("GET "+PathBudget+"/{principal}", s.handleBudgetStatus)
		s.mux.HandleFunc("POST "+PathBudget+"/{principal}/reset", s.handleBudgetReset)
	}
	if s.streamStore != nil {
		s.mux.HandleFunc("POST "+PathIngest, s.handleIngest)
		s.streamStore.ExportMetrics(s.reg)
	}
	if s.streamRel != nil {
		s.mux.HandleFunc("GET "+PathStreamReleases, s.handleStreamReleases)
		s.streamRel.ExportMetrics(s.reg)
	}
	s.reg.CounterFunc(MetricLBSHistoryUsers, func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(len(s.history))
	})
	return s
}

func (s *LBSServer) handleRelease(w http.ResponseWriter, r *http.Request) {
	var rel ReleaseRequest
	// MaxBytesReader (not a silent LimitReader truncation) so an
	// attacker-sized payload is rejected with an explicit 413 and the
	// connection torn down instead of decoding a clipped prefix.
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&rel); err != nil {
		if isMaxBytes(err) {
			writeBodyTooLarge(w, s.maxBody)
			return
		}
		writeError(w, http.StatusBadRequest, "invalid JSON body")
		return
	}
	switch {
	case rel.UserID == "":
		writeError(w, http.StatusBadRequest, "missing userId")
		return
	case len(rel.Freq) != s.m:
		writeError(w, http.StatusBadRequest, "freq has wrong dimension")
		return
	case !isFinite(rel.R) || rel.R <= 0 || rel.R > maxReleaseRadius:
		// NaN fails every comparison, so test it explicitly — a NaN
		// radius would otherwise sail through <= 0.
		writeError(w, http.StatusBadRequest, "r out of range")
		return
	}
	for _, n := range rel.Freq {
		if n < 0 {
			writeError(w, http.StatusBadRequest, "negative frequency")
			return
		}
	}
	if rel.Time.IsZero() {
		rel.Time = time.Now().UTC()
	}

	// Charge the privacy budget before any effect (history, audit): a
	// denied release must leave no trace and cost no audit work.
	principal := s.principalFromRequest(r, rel)
	var budgetState *BudgetState
	if s.ledger != nil {
		dec, err := s.ledger.Spend(principal, s.releaseEps, s.releaseDelta)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		budgetState = budgetStateOf(dec)
		if !dec.Allowed {
			if dec.RetryAfter > 0 {
				w.Header().Set("Retry-After",
					strconv.Itoa(int(math.Ceil(dec.RetryAfter.Seconds()))))
			}
			writeJSON(w, http.StatusTooManyRequests, BudgetErrorResponse{
				Error:  fmt.Sprintf("privacy budget denied (%s)", dec.Denial),
				Budget: budgetState,
			})
			return
		}
	}

	s.storeRelease(historyKey{principal, rel.UserID}, rel)

	resp := ReleaseResponse{Accepted: true, Budget: budgetState}
	if s.auditor != nil {
		resp.Audited = true
		resp.ReIdentified, resp.CandidateCount = s.auditor.Audit(rel.Freq, rel.R)
	}
	writeJSON(w, http.StatusOK, resp)
}

// storeRelease appends rel to the history under key, bounding both the
// per-user entry count (historyLimit) and the total distinct users
// (historyUsers, second-chance eviction — same one-bit LRU approximation as
// the GSP freq cache, so steadily active users survive a flood of
// one-shot userIds).
func (s *LBSServer) storeRelease(key historyKey, rel ReleaseRequest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	uh := s.history[key]
	if uh == nil {
		for len(s.history) >= s.historyUsers && len(s.userQ) > 0 {
			oldest := s.userQ[0]
			s.userQ = s.userQ[1:]
			old := s.history[oldest]
			if old == nil {
				continue
			}
			if old.touched {
				old.touched = false
				s.userQ = append(s.userQ, oldest)
				continue
			}
			delete(s.history, oldest)
		}
		uh = &userHistory{}
		s.history[key] = uh
		s.userQ = append(s.userQ, key)
	}
	uh.touched = true
	uh.rels = append(uh.rels, rel)
	if len(uh.rels) > s.historyLimit {
		uh.rels = uh.rels[len(uh.rels)-s.historyLimit:]
	}
}

// principalFromRequest resolves the principal a release is charged to
// and stored under, or a history read is answered from. With auth
// enabled, the signature-verified identity is the ONLY one consulted —
// the client-asserted X-Principal header and ?principal= query
// parameter are ignored, closing the hole where any client could charge
// (or, via the admin reset, refill) another tenant's budget, or read
// its history. Without auth the historical fallback chain applies:
// X-Principal header, ?principal= query parameter, then the userId.
func (s *LBSServer) principalFromRequest(r *http.Request, rel ReleaseRequest) string {
	if s.auth != nil {
		// The auth middleware rejected anything unsigned before it could
		// reach this handler, so the verified principal is always here;
		// the empty fallback fails closed if that invariant ever breaks.
		p, _ := VerifiedPrincipal(r.Context())
		return p
	}
	if p := r.Header.Get(HeaderPrincipal); p != "" {
		return p
	}
	if p := r.URL.Query().Get("principal"); p != "" {
		return p
	}
	return rel.UserID
}

// budgetStateOf converts a ledger decision to its wire representation.
func budgetStateOf(dec budget.Decision) *BudgetState {
	st := &BudgetState{
		Principal:            dec.Principal,
		SpentEps:             dec.SpentEps,
		SpentDelta:           dec.SpentDelta,
		RemainingEps:         dec.RemainingEps,
		RemainingDelta:       dec.RemainingDelta,
		WindowRemainingEps:   dec.WindowRemainingEps,
		WindowRemainingDelta: dec.WindowRemainingDelta,
		Releases:             dec.Releases,
	}
	if !dec.Allowed {
		st.Denial = string(dec.Denial)
		st.RetryAfterSeconds = dec.RetryAfter.Seconds()
	}
	return st
}

// authorizeBudgetPrincipal gates the budget admin endpoints: with auth
// on, authentication alone is not authorization — the path's {principal}
// must equal the signature-verified identity, or any key-holding tenant
// could sign POST /v1/budget/<victim>/reset (the signature covers the
// path, so it verifies) and refill or inspect another tenant's (ε, δ)
// accounting. Cross-tenant requests get 403 with a structured
// principal_mismatch reason. Operators are not locked out: they
// provision the keyring, so they hold (and can sign as) every tenant.
// Without auth the endpoints stay open, as before.
func (s *LBSServer) authorizeBudgetPrincipal(w http.ResponseWriter, r *http.Request) (string, bool) {
	principal := r.PathValue("principal")
	if s.auth == nil {
		return principal, true
	}
	verified, ok := VerifiedPrincipal(r.Context())
	if !ok || verified != principal {
		writeAuthForbidden(w, fmt.Sprintf(
			"principal %q may not act on %q's budget", verified, principal))
		return "", false
	}
	return principal, true
}

func (s *LBSServer) handleBudgetStatus(w http.ResponseWriter, r *http.Request) {
	principal, ok := s.authorizeBudgetPrincipal(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, budgetStateOf(s.ledger.Status(principal)))
}

func (s *LBSServer) handleBudgetReset(w http.ResponseWriter, r *http.Request) {
	principal, ok := s.authorizeBudgetPrincipal(w, r)
	if !ok {
		return
	}
	s.ledger.Reset(principal)
	writeJSON(w, http.StatusOK, budgetStateOf(s.ledger.Status(principal)))
}

// handleReleases answers from the caller's own releases only: the
// history of ?user= under the principal the request resolves to.
func (s *LBSServer) handleReleases(w http.ResponseWriter, r *http.Request) {
	userID := r.URL.Query().Get("user")
	if userID == "" {
		writeError(w, http.StatusBadRequest, "missing user parameter")
		return
	}
	key := historyKey{s.principalFromRequest(r, ReleaseRequest{UserID: userID}), userID}
	s.mu.Lock()
	var out []ReleaseRequest
	if uh := s.history[key]; uh != nil {
		// A read is activity too: mark the user so eviction spares it.
		uh.touched = true
		out = make([]ReleaseRequest, len(uh.rels))
		copy(out, uh.rels)
	} else {
		out = []ReleaseRequest{}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, ReleasesResponse{UserID: userID, Releases: out})
}
