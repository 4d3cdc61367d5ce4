package wire

import (
	"encoding/json"
	"errors"
	"log"
	"math"
	"net/http"
	"strconv"

	"poiagg/internal/geo"
	"poiagg/internal/gsp"
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
	enc      *encCache // nil when the encoded cache is disabled
}

var _ http.Handler = (*GSPServer)(nil)

// NewGSPServer wraps a GSP service as an HTTP handler. It reads the
// core options, WithMaxRadius, WithMaxBatch and WithEncodedCache.
func NewGSPServer(svc *gsp.Service, opts ...ServerOption) *GSPServer {
	st := newSettings(log.Default(), opts)
	s := &GSPServer{svc: svc, maxRadius: st.maxRadius, maxBatch: st.maxBatch}
	s.initCore(st, nil, PathFreqBatch, PathQueryBatch)
	if st.encCap > 0 {
		s.enc = newEncCache(st.encCap)
		s.enc.export(s.reg)
	}
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
	if s.enc != nil {
		k := encKey{kind: encFreq, x: l.X, y: l.Y, r: radius}
		if body, ok := s.enc.get(k); ok {
			writeRaw(w, http.StatusOK, body)
			return
		}
		if body, err := encodeJSON(FreqResponse{Freq: s.svc.Freq(l, radius)}); err == nil {
			s.enc.put(k, body)
			writeRaw(w, http.StatusOK, body)
			return
		}
	}
	writeJSON(w, http.StatusOK, FreqResponse{Freq: s.svc.Freq(l, radius)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing more to do than note it.
		log.Printf("wire: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}
