// Package wire implements the paper's Fig. 1 LBS architecture over HTTP:
// a geo-information service provider (GSP) exposing the Query/Freq
// interface, a typed Go client for mobile users, and an LBS application
// server that accepts POI-aggregate releases. All payloads are JSON over
// net/http, stdlib only.
//
// The trust boundaries follow the paper: users send coordinates only to
// the GSP; the LBS application receives frequency vectors plus the
// metadata the threat model grants the adversary (user identity, query
// range, timestamp) — and can therefore mount the re-identification
// attacks, which the AuditingLBS demonstrates.
package wire

import (
	"time"

	"poiagg/internal/geo"
	"poiagg/internal/poi"
)

// API paths served by GSPServer.
const (
	PathStats = "/v1/stats"
	PathQuery = "/v1/query"
	PathFreq  = "/v1/freq"
)

// API paths served by LBSServer.
const (
	PathRelease  = "/v1/release"
	PathReleases = "/v1/releases"
	// PathBudget prefixes the budget admin endpoints on a budget-enforced
	// LBS server: GET /v1/budget/{principal} reports a principal's
	// accounting, POST /v1/budget/{principal}/reset zeroes it.
	PathBudget = "/v1/budget"
	// PathIngest accepts an NDJSON stream of check-in events on a
	// streaming-enabled LBS server (see WithStream).
	PathIngest = "/v1/ingest"
	// PathStreamReleases lists the windowed DP releases published by the
	// streaming releaser.
	PathStreamReleases = "/v1/stream/releases"
)

// PathClusterPeers is the cluster gateway's membership admin surface:
// GET lists the fleet, POST {"url": ...} joins a shard (readiness
// probe + city check first), DELETE /v1/cluster/peers/{url} (URL
// path-escaped) retires one. Under auth the mutations are restricted
// to the WithClusterAdmin principal.
const PathClusterPeers = "/v1/cluster/peers"

// ClusterJoinRequest asks the gateway to admit a shard.
type ClusterJoinRequest struct {
	URL string `json:"url"`
}

// ClusterPeerInfo is one shard's membership row.
type ClusterPeerInfo struct {
	URL string `json:"url"`
	// Index is the shard's metrics index ("cluster.shard.<index>.*");
	// indices grow monotonically and are never reused.
	Index   int  `json:"index"`
	Healthy bool `json:"healthy"`
}

// ClusterPeersResponse is the membership listing returned by every
// /v1/cluster/peers verb.
type ClusterPeersResponse struct {
	Peers []ClusterPeerInfo `json:"peers"`
}

// HeaderPrincipal names the request header carrying the privacy-budget
// principal on POST /v1/release. A ?principal= query parameter is the
// fallback; with neither, the release's userId is charged.
const HeaderPrincipal = "X-Principal"

// StatsResponse describes the GSP's city.
type StatsResponse struct {
	Name     string   `json:"name"`
	Bounds   geo.Rect `json:"bounds"`
	NumPOIs  int      `json:"numPois"`
	NumTypes int      `json:"numTypes"`
	Types    []string `json:"types"`
}

// QueryResponse carries the POIs within the requested range.
type QueryResponse struct {
	POIs []poi.POI `json:"pois"`
}

// FreqResponse carries a POI type frequency vector.
type FreqResponse struct {
	Freq poi.FreqVector `json:"freq"`
}

// ReleaseRequest is what a user (or its defense middleware) sends to the
// LBS application: the aggregate plus the metadata of the threat model.
type ReleaseRequest struct {
	UserID string         `json:"userId"`
	Freq   poi.FreqVector `json:"freq"`
	R      float64        `json:"r"`
	Time   time.Time      `json:"time"`
}

// ReleaseResponse acknowledges a release and optionally reports the
// audit outcome when the LBS server runs in auditing mode.
type ReleaseResponse struct {
	Accepted bool `json:"accepted"`
	// Audited is true when an auditor examined the release.
	Audited bool `json:"audited"`
	// ReIdentified is true when the auditor uniquely re-identified the
	// release's location.
	ReIdentified bool `json:"reIdentified,omitempty"`
	// CandidateCount is the auditor's surviving candidate count.
	CandidateCount int `json:"candidateCount,omitempty"`
	// Budget reports the principal's accounting after this release when
	// the server enforces a privacy budget.
	Budget *BudgetState `json:"budget,omitempty"`
}

// BudgetState is a principal's privacy-budget accounting as reported by
// a budget-enforced LBS server: inside granted ReleaseResponses, 429
// denial bodies, and the /v1/budget admin endpoints.
type BudgetState struct {
	Principal  string  `json:"principal"`
	SpentEps   float64 `json:"spentEps"`
	SpentDelta float64 `json:"spentDelta"`
	// RemainingEps/RemainingDelta are the lifetime budget left.
	RemainingEps   float64 `json:"remainingEps"`
	RemainingDelta float64 `json:"remainingDelta"`
	// WindowRemainingEps/Delta are the sliding-window budget left (equal
	// to the lifetime remainders when the policy has no window).
	WindowRemainingEps   float64 `json:"windowRemainingEps"`
	WindowRemainingDelta float64 `json:"windowRemainingDelta"`
	Releases             uint64  `json:"releases"`
	// Denial ("lifetime" or "window") is set on 429 denial bodies.
	Denial string `json:"denial,omitempty"`
	// RetryAfterSeconds is how long until a window-denied release would
	// be admitted again; 0 for lifetime denials (waiting never helps).
	RetryAfterSeconds float64 `json:"retryAfterSeconds,omitempty"`
}

// BudgetErrorResponse is the structured body of a 429 budget denial.
type BudgetErrorResponse struct {
	Error  string       `json:"error"`
	Budget *BudgetState `json:"budget,omitempty"`
}

// ReleasesResponse lists a user's stored releases.
type ReleasesResponse struct {
	UserID   string           `json:"userId"`
	Releases []ReleaseRequest `json:"releases"`
}

// ErrorResponse is the error envelope for non-2xx replies.
type ErrorResponse struct {
	Error string `json:"error"`
}
