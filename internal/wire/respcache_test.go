package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// encPair builds two handlers over the same service: enc is the
// encoded-cache fast path, live the ablation baseline whose every byte
// comes from the stream encoder.
func encPair(t testing.TB) (enc, live *GSPServer) {
	t.Helper()
	_, svc := wireFixture(t)
	quiet := WithLogger(log.New(io.Discard, "", 0))
	enc = NewGSPServer(svc, quiet)
	live = NewGSPServer(svc, quiet, WithEncodedCache(0))
	return enc, live
}

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

// TestEncodedResponsesByteIdentical is the zero-copy contract's proof:
// for every read endpoint, over misses, hits, duplicates, and per-item
// errors, the encoded-cache path must emit exactly the bytes the live
// JSON encoder emits — status, Content-Type, and body.
func TestEncodedResponsesByteIdentical(t *testing.T) {
	enc, live := encPair(t)

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
	// Single freq: three distinct keys, each issued three times so the
	// second and third hits replay cached bytes.
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			reqs = append(reqs, req{
				fmt.Sprintf("freq-k%d-round%d", i, round), http.MethodGet,
				fmt.Sprintf("/v1/freq?x=%d&y=%d&r=%d", 2000+i*1500, 3000+i*900, 800+i*100), "",
			})
		}
	}
	// Rejections must be untouched by the fast path.
	reqs = append(reqs,
		req{"freq-bad-numeric", http.MethodGet, "/v1/freq?x=abc&y=1&r=100", ""},
		req{"freq-bad-nan", http.MethodGet, "/v1/freq?x=NaN&y=1&r=100", ""},
		req{"freq-bad-radius", http.MethodGet, "/v1/freq?x=1&y=1&r=-5", ""},
	)
	// Batches: duplicates of one key, a fresh key, and invalid items
	// interleaved; repeated so the second pass is all segment hits.
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
		a := doReq(t, enc, rq.method, rq.target, rq.body)
		b := doReq(t, live, rq.method, rq.target, rq.body)
		if a.Code != b.Code {
			t.Errorf("%s: status %d (encoded) vs %d (live)", rq.name, a.Code, b.Code)
		}
		if act, lct := a.Header().Get("Content-Type"), b.Header().Get("Content-Type"); act != lct {
			t.Errorf("%s: content-type %q vs %q", rq.name, act, lct)
		}
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Errorf("%s: bodies diverge:\nencoded: %s\nlive:    %s", rq.name, a.Body.Bytes(), b.Body.Bytes())
		}
	}

	// The comparison is only meaningful if the fast path actually served
	// cached bytes: the repeats above must have produced hits.
	m := enc.EncodedCacheMetrics()
	if m.Hits == 0 || m.Size == 0 {
		t.Fatalf("encoded cache never hit (metrics %+v) — the differential ran against a dead path", m)
	}
	if live.EncodedCacheMetrics() != (EncCacheMetrics{}) {
		t.Error("disabled encoded cache recorded activity")
	}
}

// TestEncodedCacheSecondChance pins the eviction policy: an entry whose
// touched bit is set is spared at eviction time (the untouched newcomer
// goes instead), while an untouched entry is evicted first-in-first-out.
func TestEncodedCacheSecondChance(t *testing.T) {
	c := newEncCache(1) // single shard, capacity 1
	k1 := encKey{kind: encFreq, x: 1}
	k2 := encKey{kind: encFreq, x: 2}
	c.put(k1, []byte("a"))
	if b, ok := c.get(k1); !ok || string(b) != "a" { // sets k1's touched bit
		t.Fatalf("get after put: %q %v", b, ok)
	}
	c.put(k2, []byte("b"))
	if b, ok := c.get(k1); !ok || string(b) != "a" {
		t.Error("recently touched k1 was evicted instead of spared")
	}
	if _, ok := c.get(k2); ok {
		t.Error("untouched newcomer k2 survived over a touched k1")
	}
	// k1's bit was cleared by the spare pass above, then re-set by the
	// get; a fresh insert after clearing it evicts k1 normally.
	c.put(k1, []byte("a")) // refresh clears nothing, but the next cycle:
	c.put(k2, []byte("b"))
	c.put(k2, []byte("b"))
	if m := c.metrics(); m.Evictions == 0 || m.Size != 1 {
		t.Errorf("metrics %+v after eviction", m)
	}
}

// TestEncodedFreqHitSkipsService proves the single-freq hit path never
// reaches the service layer: after the first request, the gsp cache's
// lookup counters stay frozen while the encoded cache serves.
func TestEncodedFreqHitSkipsService(t *testing.T) {
	_, svc := wireFixture(t)
	s := NewGSPServer(svc, WithLogger(log.New(io.Discard, "", 0)))
	const target = "/v1/freq?x=4321&y=1234&r=777"
	doReq(t, s, http.MethodGet, target, "")
	hits0, misses0 := svc.CacheStats()
	for i := 0; i < 5; i++ {
		if rec := doReq(t, s, http.MethodGet, target, ""); rec.Code != http.StatusOK {
			t.Fatalf("hit %d: status %d", i, rec.Code)
		}
	}
	hits1, misses1 := svc.CacheStats()
	if hits1 != hits0 || misses1 != misses0 {
		t.Errorf("encoded hits still touched the service: gsp cache %d/%d -> %d/%d",
			hits0, misses0, hits1, misses1)
	}
	if m := s.EncodedCacheMetrics(); m.Hits != 5 {
		t.Errorf("encoded cache hits = %d, want 5", m.Hits)
	}
}

// BenchmarkFreqEncodedHit prices a hot /v1/freq hit with the encoded
// cache replaying stored bytes against the live path that re-encodes the
// vector every time, both through the full server chain.
func BenchmarkFreqEncodedHit(b *testing.B) {
	_, svc := wireFixture(b)
	quiet := []ServerOption{WithLogger(log.New(io.Discard, "", 0))}
	req := httptest.NewRequest(http.MethodGet, "/v1/freq?x=5000&y=5000&r=1000", nil)
	for _, v := range []struct {
		name string
		srv  *GSPServer
	}{
		{"encoded", NewGSPServer(svc, quiet...)},
		{"live", NewGSPServer(svc, append(quiet, WithEncodedCache(0))...)},
	} {
		// Warm both tiers so the loop measures pure hits.
		v.srv.ServeHTTP(httptest.NewRecorder(), req)
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				v.srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
}
