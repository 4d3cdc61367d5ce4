package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"poiagg/internal/stream"
)

// MaxIngestLine caps one NDJSON event line in bytes; a single event is
// a few hundred bytes, so anything near this is malformed or hostile.
const MaxIngestLine = 16 * 1024

// maxIngestErrors bounds how many per-event errors one IngestResponse
// reports; past it the response only counts rejects.
const maxIngestErrors = 64

// IngestEventError describes one rejected event in an NDJSON ingest
// stream, addressed by its 1-based line number.
type IngestEventError struct {
	Line  int    `json:"line"`
	Error string `json:"error"`
}

// IngestResponse summarizes one POST /v1/ingest stream: how many events
// entered the window, how many were rejected, and the first
// maxIngestErrors structured per-event errors.
type IngestResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// Deduped counts events whose id was already live in the window:
	// at-least-once retries replayed them, and the original application
	// stands. They are neither accepted nor rejected.
	Deduped int `json:"deduped,omitempty"`
	// Errors details rejected events; truncated past maxIngestErrors.
	Errors []IngestEventError `json:"errors,omitempty"`
	// ErrorsTruncated is true when more events were rejected than
	// Errors reports.
	ErrorsTruncated bool `json:"errorsTruncated,omitempty"`
}

// StreamReleasesResponse lists windowed DP releases, oldest first. It
// carries the public projection only: exact contributor counts and
// denied tenant names never cross this (any-caller) endpoint — see
// stream.WindowRelease.Public.
type StreamReleasesResponse struct {
	Releases []stream.PublicRelease `json:"releases"`
}

// WithStream serves the live-ingestion surface on the LBS server:
// POST /v1/ingest feeds NDJSON check-in events into st's sliding
// window, and GET /v1/stream/releases lists rel's windowed DP releases
// (when rel is non-nil). Both stores export their stream.* metrics on
// the server's registry. Ingest rides the standard middleware stack:
// admission control sheds it with 503 + Retry-After under overload, and
// with auth enabled events are only ever credited to the
// signature-verified principal. The server does not tick rel; the
// daemon (or test) drives it through its own clock. Only the LBS server
// reads it.
func WithStream(st *stream.Store, rel *stream.Releaser) ServerOption {
	return func(o *serverSettings) { o.lbs.streamStore, o.lbs.streamRel = st, rel }
}

// ingestPrincipal resolves the budget principal for a whole ingest
// stream, with the same trust rules as releases: the verified identity
// is the only one consulted under auth; otherwise the X-Principal
// header then ?principal= apply, and an empty result falls back to each
// event's userId.
func (s *LBSServer) ingestPrincipal(r *http.Request) string {
	if s.auth != nil {
		p, _ := VerifiedPrincipal(r.Context())
		return p
	}
	if p := r.Header.Get(HeaderPrincipal); p != "" {
		return p
	}
	return r.URL.Query().Get("principal")
}

func (s *LBSServer) handleIngest(w http.ResponseWriter, r *http.Request) {
	principal := s.ingestPrincipal(r)
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 4096), MaxIngestLine)

	var resp IngestResponse
	reject := func(line int, err error) {
		resp.Rejected++
		if len(resp.Errors) < maxIngestErrors {
			resp.Errors = append(resp.Errors, IngestEventError{Line: line, Error: err.Error()})
		} else {
			resp.ErrorsTruncated = true
		}
	}
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ev stream.Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			reject(line, fmt.Errorf("invalid JSON event: %v", err))
			continue
		}
		p := principal
		if p == "" {
			p = ev.UserID
		}
		if err := s.streamStore.Apply(ev, p); err != nil {
			if errors.Is(err, stream.ErrDuplicateEvent) {
				resp.Deduped++
				continue
			}
			reject(line, err)
			continue
		}
		resp.Accepted++
	}
	if err := sc.Err(); err != nil {
		// Events admitted before the cut stay admitted (the stream is
		// at-least-once anyway); the error status tells the client the
		// tail never arrived.
		switch {
		case isMaxBytes(err):
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("ingest stream exceeds %d bytes (accepted %d events before the cap)",
					s.maxBody, resp.Accepted))
		case errors.Is(err, bufio.ErrTooLong):
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("event line %d exceeds %d bytes", line+1, MaxIngestLine))
		default:
			writeError(w, http.StatusBadRequest, fmt.Sprintf("read ingest stream: %v", err))
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *LBSServer) handleStreamReleases(w http.ResponseWriter, r *http.Request) {
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "invalid n parameter")
			return
		}
		n = v
	}
	hist := s.streamRel.History(n)
	pub := make([]stream.PublicRelease, len(hist))
	for i, wr := range hist {
		pub[i] = wr.Public()
	}
	writeJSON(w, http.StatusOK, StreamReleasesResponse{Releases: pub})
}
