package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"

	"poiagg/internal/geo"
	"poiagg/internal/gsp"
	"poiagg/internal/poi"
)

// GSPServer serves the geo-information provider's query interface over
// HTTP, plus the operational endpoints /v1/metrics, /healthz and /readyz
// of its serverCore. It is an http.Handler, and ListenAndServe runs it
// as a daemon.
type GSPServer struct {
	serverCore
	svc *gsp.Service
	// maxRadius rejects abusive range queries.
	maxRadius float64
	// maxBatch bounds items per batch request.
	maxBatch int
}

var _ http.Handler = (*GSPServer)(nil)

// NewGSPServer wraps a GSP service as an HTTP handler. It reads the
// core options, WithMaxRadius and WithMaxBatch.
func NewGSPServer(svc *gsp.Service, opts ...ServerOption) *GSPServer {
	st := newSettings(log.Default(), opts)
	s := &GSPServer{svc: svc, maxRadius: st.maxRadius, maxBatch: st.maxBatch}
	s.initCore(st, nil, PathFreqBatch, PathQueryBatch)
	s.mux.HandleFunc("GET "+PathStats, s.handleStats)
	s.mux.HandleFunc("GET "+PathQuery, s.handleQuery)
	s.mux.HandleFunc("GET "+PathFreq, s.handleFreq)
	s.registerPOIDump()
	s.registerBatch()
	return s
}

func (s *GSPServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	city := s.svc.City()
	writeJSON(w, http.StatusOK, StatsResponse{
		Name:     city.Name,
		Bounds:   city.Bounds,
		NumPOIs:  city.NumPOIs(),
		NumTypes: city.M(),
		Types:    city.Types.Names(),
	})
}

// parseLocation extracts and validates the x, y, r query parameters.
func (s *GSPServer) parseLocation(w http.ResponseWriter, r *http.Request) (geo.Point, float64, bool) {
	return parseLocationQuery(w, r, s.maxRadius)
}

// parseLocationQuery is the shared location validator behind the single
// query endpoints: the GSP server and the cluster gateway both run it,
// so a rejected request gets a byte-identical 400 from either — the
// differential cluster e2e depends on that. Coordinates must be finite —
// strconv accepts "NaN" and "Inf", which would otherwise flow into the
// spatial index as poison values.
func parseLocationQuery(w http.ResponseWriter, r *http.Request, maxRadius float64) (geo.Point, float64, bool) {
	q := r.URL.Query()
	x, errX := strconv.ParseFloat(q.Get("x"), 64)
	y, errY := strconv.ParseFloat(q.Get("y"), 64)
	radius, errR := strconv.ParseFloat(q.Get("r"), 64)
	if errX != nil || errY != nil || errR != nil {
		writeError(w, http.StatusBadRequest, "x, y, r must be numeric")
		return geo.Point{}, 0, false
	}
	if !isFinite(x) || !isFinite(y) || !isFinite(radius) {
		writeError(w, http.StatusBadRequest, "x, y, r must be finite")
		return geo.Point{}, 0, false
	}
	if radius <= 0 || radius > maxRadius {
		writeError(w, http.StatusBadRequest, "r out of range")
		return geo.Point{}, 0, false
	}
	return geo.Point{X: x, Y: y}, radius, true
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// isMaxBytes reports whether err came from an http.MaxBytesReader body
// cap — the rejection that must surface as 413, not 400.
func isMaxBytes(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// writeBodyTooLarge is every server's 413 for a body over maxBody bytes.
func writeBodyTooLarge(w http.ResponseWriter, maxBody int64) {
	writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxBody))
}

func (s *GSPServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	l, radius, ok := s.parseLocation(w, r)
	if !ok {
		return
	}
	pois := s.svc.Query(l, radius)
	writeJSON(w, http.StatusOK, QueryResponse{POIs: pois})
}

func (s *GSPServer) handleFreq(w http.ResponseWriter, r *http.Request) {
	l, radius, ok := s.parseLocation(w, r)
	if !ok {
		return
	}
	f := s.svc.Freq(l, radius)
	// Room for three digits and a comma per count.
	b := append(make([]byte, 0, 16+4*len(f)), `{"freq":`...)
	b = appendFreqJSON(b, f)
	writeRaw(w, http.StatusOK, append(b, "}\n"...))
}

// appendFreqJSON appends the bytes json.Marshal gives a non-nil f,
// without reflection. The freq endpoints write their bodies with it, and
// those must stay byte-identical to writeJSON of the typed response: a
// gateway relays shard bodies as they are, and its join check compares
// a joiner's /v1/freq body with a donor's byte for byte, so every gspd
// build in a fleet must write the same bytes.
func appendFreqJSON(b []byte, f poi.FreqVector) []byte {
	b = append(b, '[')
	for i, n := range f {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, ']')
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing more to do than note it.
		log.Printf("wire: encode response: %v", err)
	}
}

// writeRaw sends a JSON body, ending in a newline as writeJSON's do.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client went away; nothing is left to send.
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}
