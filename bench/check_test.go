package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// testCity is a small random city for the oracle tests.
func testCity() *cityOracle {
	o := &cityOracle{name: "test", m: 5, maxX: 1000, maxY: 1000}
	r := newRand(9, 0, 0)
	for range 1200 {
		o.xs = append(o.xs, 1000*r.float())
		o.ys = append(o.ys, 1000*r.float())
		o.types = append(o.types, r.intn(o.m))
	}
	return o
}

// fakeGSP answers /v1/freq and /v1/freq/batch from the oracle, adding one
// to the first count of every answer when wrong is set.
func fakeGSP(o *cityOracle, wrong bool) *httptest.Server {
	answer := func(it item) []int {
		f := o.freq(it)
		if wrong {
			f[0]++
		}
		return f
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/freq", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var it item
		it.X, _ = strconv.ParseFloat(q.Get("x"), 64)
		it.Y, _ = strconv.ParseFloat(q.Get("y"), 64)
		it.R, _ = strconv.ParseFloat(q.Get("r"), 64)
		json.NewEncoder(w).Encode(map[string][]int{"freq": answer(it)})
	})
	mux.HandleFunc("POST /v1/freq/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ Items []item }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		type res struct {
			Freq []int `json:"freq"`
		}
		var out struct {
			Results []res `json:"results"`
		}
		for _, it := range req.Items {
			out.Results = append(out.Results, res{answer(it)})
		}
		json.NewEncoder(w).Encode(out)
	})
	return httptest.NewServer(mux)
}

// TestWrongAnswerExitsNonzero runs the gateway workload's traffic against
// a fake GSP: right answers pass, and injected wrong ones are counted as
// failed operations and make the benchmark exit nonzero.
func TestWrongAnswerExitsNonzero(t *testing.T) {
	o := testCity()
	for _, wrong := range []bool{false, true} {
		srv := fakeGSP(o, wrong)
		chk := &checker{oracle: o}
		c := newCaller(srv.URL, 1)
		tr := newHotTraffic(trafficBase{c: c, seed: 1, clients: makePrincipals(1, 2), oracle: o, chk: chk}, 4)
		ss := openLoop(context.Background(), 1000, 400*time.Millisecond, genConns, opsOf(tr, phaseFixed))
		c.close()
		srv.Close()

		res := newResult("test")
		res.count(ss)
		res.applyChecks(chk)
		if res.attempted != 400 {
			t.Fatalf("attempted %d", res.attempted)
		}
		if !wrong {
			if res.failed != 0 || res.exitCode() != exitOK || chk.checked == 0 {
				t.Errorf("right answers: failed %d of %d checked, exit %d", res.failed, chk.checked, res.exitCode())
			}
			continue
		}
		if res.failed != chk.checked || chk.checked == 0 || res.exitCode() == exitOK {
			t.Errorf("wrong answers: failed %d of %d checked, exit %d", res.failed, chk.checked, res.exitCode())
		}
	}
}

// TestStreamKeptUpPastHistory checks the stream oracle on more ticks than
// lbsd keeps: only the kept releases can be read, and the check must ask
// for no more than those.
func TestStreamKeptUpPastHistory(t *testing.T) {
	const m = 5
	// releases returns lbsd's kept history after tick `last`, with the
	// vectors of the ticks in drop left empty.
	releases := func(last uint64, drop ...uint64) []streamRelease {
		var rs []streamRelease
		for tick := last + 1 - streamHistory; tick <= last; tick++ {
			r := streamRelease{Tick: tick, Freq: make([]int, m)}
			for _, d := range drop {
				if d == tick {
					r.Freq = nil
				}
			}
			rs = append(rs, r)
		}
		return rs
	}
	for _, c := range []struct {
		name   string
		rs     []streamRelease
		t0, t1 uint64
		ok     bool
	}{
		{"100 ticks, one fired after counting", releases(110), 10, 110, true},
		{"100 ticks, none after counting", releases(109), 10, 110, true},
		{"100 ticks, one empty", releases(110, 80), 10, 110, true},
		{"100 ticks, two empty", releases(110, 80, 90), 10, 110, false},
		{"20 ticks", releases(70), 50, 70, true},
		{"20 ticks, two empty", releases(70, 55, 60), 50, 70, false},
		{"no releases", nil, 10, 110, false},
	} {
		if err := streamKeptUp(c.rs, c.t0, c.t1, m); (err == nil) != c.ok {
			t.Errorf("%s: %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
