package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"poiagg/internal/geo"
	"poiagg/internal/gsp"
	"poiagg/internal/poi"
)

func doReq(t *testing.T, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, rd))
	return rec
}

// TestAppendFreqJSONMatchesMarshal holds the appender, and the batch
// body built with it, to encoding/json on random vectors, counts up to
// 2^40 included.
func TestAppendFreqJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 500; trial++ {
		f := make(poi.FreqVector, 1+rng.IntN(400))
		for i := range f {
			switch rng.IntN(3) {
			case 0: // the common case: a small count or none
				f[i] = rng.IntN(10)
			case 1:
				f[i] = rng.IntN(100_000)
			default:
				f[i] = int(rng.Int64N(1<<40 + 1))
			}
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFreqJSON([]byte("prefix"), f); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("trial %d: appendFreqJSON = %s, json.Marshal = %s", trial, got[len("prefix"):], want)
		}
		results := []FreqBatchResult{{Freq: f}, {Error: "r <out> & of range"}, {Freq: poi.FreqVector{}}, {Freq: f[:1]}}
		want, err = json.Marshal(FreqBatchResponse{Results: results})
		if err != nil {
			t.Fatal(err)
		}
		if got := freqBatchJSON(results); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("trial %d: freqBatchJSON = %s, json.Marshal = %s", trial, got, want)
		}
	}
}

// typedReference answers the GSP read endpoints the way writeJSON
// encodes their typed responses, computing every item from svc one
// probe at a time. It shares the server's validators, so any difference
// from the server is in the encoding or in the batch plumbing.
func typedReference(s *GSPServer, svc *gsp.Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathFreq, func(w http.ResponseWriter, r *http.Request) {
		if l, radius, ok := s.parseLocation(w, r); ok {
			writeJSON(w, http.StatusOK, FreqResponse{Freq: svc.Freq(l, radius)})
		}
	})
	mux.HandleFunc("GET "+PathQuery, func(w http.ResponseWriter, r *http.Request) {
		if l, radius, ok := s.parseLocation(w, r); ok {
			writeJSON(w, http.StatusOK, QueryResponse{POIs: svc.Query(l, radius)})
		}
	})
	mux.HandleFunc("POST "+PathFreqBatch, func(w http.ResponseWriter, r *http.Request) {
		items, ok := s.decodeBatch(w, r)
		if !ok {
			return
		}
		results := make([]FreqBatchResult, len(items))
		for i, it := range items {
			if err := s.validateItem(it); err != nil {
				results[i].Error = err.Error()
				continue
			}
			results[i].Freq = svc.Freq(geo.Point{X: it.X, Y: it.Y}, it.R)
		}
		writeJSON(w, http.StatusOK, FreqBatchResponse{Results: results})
	})
	mux.HandleFunc("POST "+PathQueryBatch, func(w http.ResponseWriter, r *http.Request) {
		items, ok := s.decodeBatch(w, r)
		if !ok {
			return
		}
		results := make([]QueryBatchResult, len(items))
		for i, it := range items {
			if err := s.validateItem(it); err != nil {
				results[i].Error = err.Error()
				continue
			}
			results[i].POIs = svc.Query(geo.Point{X: it.X, Y: it.Y}, it.R)
		}
		writeJSON(w, http.StatusOK, QueryBatchResponse{Results: results})
	})
	return mux
}

// TestEncodedResponsesByteIdentical holds every read endpoint, over
// misses, repeats, duplicates, per-item errors and malformed envelopes,
// to the bytes writeJSON gives the typed response: status, Content-Type
// and body.
func TestEncodedResponsesByteIdentical(t *testing.T) {
	_, svc := wireFixture(t)
	srv := NewGSPServer(svc, WithLogger(log.New(io.Discard, "", 0)))
	ref := typedReference(srv, svc)

	batch := func(items ...BatchItem) string {
		b, err := json.Marshal(BatchRequest{Items: items})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	type req struct {
		name, method, target, body string
	}
	var reqs []req
	// Single freq: three distinct keys, each issued three times, so the
	// later rounds are gsp cache hits.
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			reqs = append(reqs, req{
				fmt.Sprintf("freq-k%d-round%d", i, round), http.MethodGet,
				fmt.Sprintf("/v1/freq?x=%d&y=%d&r=%d", 2000+i*1500, 3000+i*900, 800+i*100), "",
			})
		}
	}
	reqs = append(reqs,
		req{"freq-bad-numeric", http.MethodGet, "/v1/freq?x=abc&y=1&r=100", ""},
		req{"freq-bad-nan", http.MethodGet, "/v1/freq?x=NaN&y=1&r=100", ""},
		req{"freq-bad-radius", http.MethodGet, "/v1/freq?x=1&y=1&r=-5", ""},
	)
	// Batches: duplicates of one key, a fresh key, and invalid items
	// interleaved; repeated so the second pass is all cache hits.
	mixed := batch(
		BatchItem{X: 2000, Y: 3000, R: 800}, // also hot from the single-freq round
		BatchItem{X: 5500, Y: 4200, R: 900},
		BatchItem{X: 2000, Y: 3000, R: 800}, // duplicate
		BatchItem{X: 1, Y: 1, R: -3},        // invalid radius
		BatchItem{X: 7000, Y: 7000, R: 600},
	)
	allInvalid := batch(BatchItem{R: -1}, BatchItem{X: 1, Y: 2, R: 0})
	for round := 0; round < 2; round++ {
		reqs = append(reqs,
			req{fmt.Sprintf("freq-batch-round%d", round), http.MethodPost, PathFreqBatch, mixed},
			req{fmt.Sprintf("query-batch-round%d", round), http.MethodPost, PathQueryBatch, mixed},
		)
	}
	reqs = append(reqs,
		req{"freq-batch-all-invalid", http.MethodPost, PathFreqBatch, allInvalid},
		req{"query-batch-all-invalid", http.MethodPost, PathQueryBatch, allInvalid},
		req{"batch-malformed", http.MethodPost, PathFreqBatch, "{nope"},
		req{"query-single", http.MethodGet, "/v1/query?x=2000&y=3000&r=800", ""},
	)

	for _, rq := range reqs {
		a := doReq(t, srv, rq.method, rq.target, rq.body)
		b := doReq(t, ref, rq.method, rq.target, rq.body)
		if a.Code != b.Code {
			t.Errorf("%s: status %d (server) vs %d (typed)", rq.name, a.Code, b.Code)
		}
		if act, lct := a.Header().Get("Content-Type"), b.Header().Get("Content-Type"); act != lct {
			t.Errorf("%s: content-type %q vs %q", rq.name, act, lct)
		}
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Errorf("%s: bodies diverge:\nserver: %s\ntyped:  %s", rq.name, a.Body.Bytes(), b.Body.Bytes())
		}
	}
}

// BenchmarkFreqHotHit prices a hot /v1/freq answer through the full
// server chain: a gsp cache hit, then the appender.
func BenchmarkFreqHotHit(b *testing.B) {
	_, svc := wireFixture(b)
	srv := NewGSPServer(svc, WithLogger(log.New(io.Discard, "", 0)))
	req := httptest.NewRequest(http.MethodGet, "/v1/freq?x=5000&y=5000&r=1000", nil)
	srv.ServeHTTP(httptest.NewRecorder(), req) // warm the gsp cache
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
