package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"poiagg/internal/citygen"
	"poiagg/internal/cluster"
	"poiagg/internal/geo"
	"poiagg/internal/gsp"
	"poiagg/internal/obs"
	"poiagg/internal/poi"
)

// This file is the proof layer of the cluster gateway: a fleet of gspd
// shards behind gspgw must be indistinguishable — byte for byte — from
// one gspd over the same city, across the full endpoint surface,
// with and without request signing; and when a shard dies mid-batch the
// gateway must degrade into structured per-item errors and converge
// back once the health probe sees the shard recover.

// killSwitch is a RoundTripper that simulates shard death: requests to
// a killed host fail with the same wrapped ECONNREFUSED a dead process
// produces, without closing the httptest listener (reopening a closed
// listener on the same port is racy; flipping a map entry is not).
type killSwitch struct {
	base http.RoundTripper

	mu       sync.Mutex
	dead     map[string]bool
	slow     map[string]time.Duration
	observer func(*http.Request)
}

func newKillSwitch() *killSwitch {
	return &killSwitch{
		base: http.DefaultTransport,
		dead: make(map[string]bool),
		slow: make(map[string]time.Duration),
	}
}

func hostOf(t testing.TB, baseURL string) string {
	t.Helper()
	u, err := url.Parse(baseURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

func (k *killSwitch) set(host string, dead bool) {
	k.mu.Lock()
	k.dead[host] = dead
	k.mu.Unlock()
}

// lag injects latency ahead of every request to host (0 clears it).
func (k *killSwitch) lag(host string, d time.Duration) {
	k.mu.Lock()
	k.slow[host] = d
	k.mu.Unlock()
}

// observe installs a hook seeing every gateway→shard request (nil
// clears it). Dead-host requests are observed too — the hook sees what
// the gateway tried, not what succeeded.
func (k *killSwitch) observe(fn func(*http.Request)) {
	k.mu.Lock()
	k.observer = fn
	k.mu.Unlock()
}

func (k *killSwitch) RoundTrip(req *http.Request) (*http.Response, error) {
	k.mu.Lock()
	dead := k.dead[req.URL.Host]
	delay := k.slow[req.URL.Host]
	obsFn := k.observer
	k.mu.Unlock()
	if obsFn != nil {
		obsFn(req)
	}
	if dead {
		return nil, refusedErr()
	}
	if delay > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(delay):
		}
	}
	return k.base.RoundTrip(req)
}

// clusterHarness is one differential setup: nShards gspd shards behind
// a gateway, plus a single-node reference gspd over the same service.
type clusterHarness struct {
	single    *httptest.Server // the reference
	gwTS      *httptest.Server
	gw        *ClusterGateway
	shards    []*httptest.Server
	kill      *killSwitch
	shardOpts []ServerOption
}

const (
	clusterPrincipal = "alice"
	gatewayPrincipal = "gateway"
	adminPrincipal   = "admin"
)

// newClusterHarness builds the differential setup. With withAuth, the
// single node and the gateway both verify the client keyring (alice
// plus the membership admin), the shards verify the gateway's key, and
// the gateway's peer clients re-sign as the gateway principal — the
// trust chain of a real deployment. extra options are appended to the
// gateway's, so tests can turn on replicas, membership admin, etc.
func newClusterHarness(t *testing.T, nShards int, withAuth bool, extra ...ServerOption) *clusterHarness {
	t.Helper()
	_, svc := wireFixture(t)
	quiet := WithLogger(log.New(io.Discard, "", 0))

	clientKR := NewKeyring()
	if err := clientKR.Add(clusterPrincipal, testKey('A')); err != nil {
		t.Fatal(err)
	}
	if err := clientKR.Add(adminPrincipal, testKey('D')); err != nil {
		t.Fatal(err)
	}
	gwKey := testKey('G')
	shardKR := NewKeyring()
	if err := shardKR.Add(gatewayPrincipal, gwKey); err != nil {
		t.Fatal(err)
	}

	var shardOpts, singleOpts []ServerOption
	shardOpts = append(shardOpts, quiet)
	singleOpts = append(singleOpts, quiet)
	if withAuth {
		shardOpts = append(shardOpts, WithAuth(shardKR))
		singleOpts = append(singleOpts, WithAuth(clientKR))
	}

	h := &clusterHarness{kill: newKillSwitch(), shardOpts: shardOpts}
	h.single = httptest.NewServer(NewGSPServer(svc, singleOpts...))
	t.Cleanup(h.single.Close)

	peers := make([]string, nShards)
	for i := range peers {
		ts := h.newShard(t)
		h.shards = append(h.shards, ts)
		peers[i] = ts.URL
	}

	peerOpts := []ClientOption{fastBackoff()}
	if withAuth {
		peerOpts = append(peerOpts, WithSigningKey(gatewayPrincipal, gwKey))
	}
	gwOpts := []ServerOption{
		WithLogger(log.New(io.Discard, "", 0)),
		WithPeerTransport(h.kill),
		WithPeerClientOptions(peerOpts...),
		WithProbeTimeout(200 * time.Millisecond),
	}
	if withAuth {
		gwOpts = append(gwOpts, WithAuth(clientKR))
	}
	gwOpts = append(gwOpts, extra...)
	gw, err := NewClusterGateway(peers, gwOpts...)
	if err != nil {
		t.Fatal(err)
	}
	h.gw = gw
	h.gwTS = httptest.NewServer(gw)
	t.Cleanup(h.gwTS.Close)
	return h
}

// newShard spins up another gspd over the harness's city with the same
// shard options — a spare ready to be joined through the admin surface.
func (h *clusterHarness) newShard(t testing.TB) *httptest.Server {
	t.Helper()
	_, svc := wireFixture(t)
	ts := httptest.NewServer(NewGSPServer(svc, h.shardOpts...))
	t.Cleanup(ts.Close)
	return ts
}

// killShard makes one shard refuse connections; reviveShard undoes it.
func (h *clusterHarness) killShard(t testing.TB, i int) {
	h.kill.set(hostOf(t, h.shards[i].URL), true)
}

func (h *clusterHarness) reviveShard(t testing.TB, i int) {
	h.kill.set(hostOf(t, h.shards[i].URL), false)
}

// rawResponse is everything the differential assertion compares.
type rawResponse struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

// send fires one request at base. If principal is non-empty the request
// is signed (same timestamp and nonce across both targets of a
// differential pair — each server sees the nonce once, and the
// canonical string excludes the host, so the signature is valid for
// both).
func (h *clusterHarness) send(t *testing.T, base, method, pathQuery string, body []byte,
	principal string, key []byte, at time.Time, nonce string) rawResponse {
	t.Helper()
	req, err := http.NewRequest(method, base+pathQuery, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if principal != "" {
		if err := SignRequest(req, body, principal, key, at, nonce); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rawResponse{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        raw,
	}
}

var nonceCounter int

// assertIdentical sends the same request to the single-node reference
// and to the gateway and requires byte-identical responses.
func (h *clusterHarness) assertIdentical(t *testing.T, method, pathQuery string, body []byte, signed bool) {
	t.Helper()
	principal, key := "", []byte(nil)
	at, nonce := time.Time{}, ""
	if signed {
		principal, key = clusterPrincipal, testKey('A')
		at = time.Now()
		nonceCounter++
		nonce = fmt.Sprintf("d1f%013d", nonceCounter) // lowercase hex, as validNonce requires
	}
	ref := h.send(t, h.single.URL, method, pathQuery, body, principal, key, at, nonce)
	got := h.send(t, h.gwTS.URL, method, pathQuery, body, principal, key, at, nonce)
	if got.status != ref.status {
		t.Errorf("%s %s: gateway status %d, single-node %d (gateway body %q)",
			method, pathQuery, got.status, ref.status, got.body)
		return
	}
	if got.contentType != ref.contentType {
		t.Errorf("%s %s: gateway Content-Type %q, single-node %q",
			method, pathQuery, got.contentType, ref.contentType)
	}
	if !bytes.Equal(got.body, ref.body) {
		t.Errorf("%s %s: responses diverge\n gateway: %q\n single:  %q",
			method, pathQuery, got.body, ref.body)
	}
}

// freqBatchBody builds a batch body spraying n probes across the city,
// so a multi-shard gateway must split it across every shard.
func freqBatchBody(t testing.TB, n int, seed uint64) []byte {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{
			X: rng.Float64() * 12_000,
			Y: rng.Float64() * 12_000,
			R: 200 + rng.Float64()*1500,
		}
	}
	raw, err := json.Marshal(BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// differentialSurface is the full endpoint surface the e2e walks: the
// happy paths, every validation failure class, wrong methods, and an
// unknown route. The error strings come from the shared validators, so
// a divergence here means gateway and shard drifted apart.
func differentialSurface(t *testing.T) []struct {
	name, method, pathQuery string
	body                    []byte
} {
	t.Helper()
	bigBatch := freqBatchBody(t, DefaultMaxBatch+1, 9)
	mixedBatch := []byte(`{"items":[` +
		`{"x":6000,"y":6000,"r":800},` +
		`{"x":1,"y":2,"r":-5},` + // invalid radius
		`{"x":11000,"y":200,"r":400},` +
		`{"x":0,"y":0,"r":1e300},` + // radius beyond the cap
		`{"x":3000,"y":9000,"r":1200}]}`)
	return []struct {
		name, method, pathQuery string
		body                    []byte
	}{
		{"stats", http.MethodGet, PathStats, nil},
		{"pois", http.MethodGet, PathPOIs, nil},
		{"freq", http.MethodGet, PathFreq + "?x=6000&y=6000&r=900", nil},
		{"freq_far_corner", http.MethodGet, PathFreq + "?x=11900&y=150&r=400", nil},
		{"freq_outside_city", http.MethodGet, PathFreq + "?x=-4000&y=-4000&r=500", nil},
		{"query", http.MethodGet, PathQuery + "?x=4000&y=8000&r=700", nil},
		{"query_empty_region", http.MethodGet, PathQuery + "?x=-9000&y=-9000&r=10", nil},
		{"freq_malformed_x", http.MethodGet, PathFreq + "?x=abc&y=0&r=100", nil},
		{"freq_missing_r", http.MethodGet, PathFreq + "?x=1&y=2", nil},
		{"freq_radius_too_big", http.MethodGet, PathFreq + "?x=1&y=2&r=1e12", nil},
		{"freq_radius_negative", http.MethodGet, PathFreq + "?x=1&y=2&r=-1", nil},
		{"query_malformed_y", http.MethodGet, PathQuery + "?x=0&y=zz&r=100", nil},
		{"freq_wrong_method", http.MethodPost, PathFreq + "?x=1&y=2&r=100", []byte(`{}`)},
		{"batch_wrong_method", http.MethodGet, PathFreqBatch, nil},
		{"unknown_route", http.MethodGet, "/v1/nope", nil},
		{"freq_batch", http.MethodPost, PathFreqBatch, freqBatchBody(t, 64, 5)},
		{"query_batch", http.MethodPost, PathQueryBatch, freqBatchBody(t, 32, 6)},
		{"freq_batch_mixed_invalid", http.MethodPost, PathFreqBatch, mixedBatch},
		{"query_batch_mixed_invalid", http.MethodPost, PathQueryBatch, mixedBatch},
		{"freq_batch_empty", http.MethodPost, PathFreqBatch, []byte(`{"items":[]}`)},
		{"freq_batch_malformed", http.MethodPost, PathFreqBatch, []byte(`{"items":[`)},
		{"freq_batch_oversized", http.MethodPost, PathFreqBatch, bigBatch},
	}
}

// TestClusterDifferentialIdentical is the core tentpole assertion: for
// every request in the surface, a 3-shard cluster behind the gateway
// answers byte-identically to a single gspd.
func TestClusterDifferentialIdentical(t *testing.T) {
	h := newClusterHarness(t, 3, false)
	for _, tc := range differentialSurface(t) {
		t.Run(tc.name, func(t *testing.T) {
			h.assertIdentical(t, tc.method, tc.pathQuery, tc.body, false)
		})
	}
}

// TestClusterDifferentialSingleShard: the degenerate fleet of one must
// also be transparent — the split/merge machinery handles the
// everything-on-one-shard case.
func TestClusterDifferentialSingleShard(t *testing.T) {
	h := newClusterHarness(t, 1, false)
	for _, tc := range differentialSurface(t) {
		t.Run(tc.name, func(t *testing.T) {
			h.assertIdentical(t, tc.method, tc.pathQuery, tc.body, false)
		})
	}
}

// TestClusterDifferentialAuth repeats the surface with request signing
// enabled end to end: alice's signature admits her at both the single
// node and the gateway, and the gateway re-signs toward the shards.
func TestClusterDifferentialAuth(t *testing.T) {
	h := newClusterHarness(t, 3, true)
	for _, tc := range differentialSurface(t) {
		t.Run(tc.name, func(t *testing.T) {
			h.assertIdentical(t, tc.method, tc.pathQuery, tc.body, true)
		})
	}

	// The rejection side must be identical too: unsigned, wrong key, and
	// tampered-after-signing requests get the same structured 401 from
	// both. (Unsigned requests share one empty nonce — fine, they never
	// reach the replay cache.)
	t.Run("unsigned_rejected", func(t *testing.T) {
		h.assertIdentical(t, http.MethodGet, PathFreq+"?x=1&y=2&r=100", nil, false)
	})
	t.Run("wrong_key_rejected", func(t *testing.T) {
		ref := h.send(t, h.single.URL, http.MethodGet, PathStats, nil,
			clusterPrincipal, testKey('Z'), time.Now(), "deadbeef01")
		got := h.send(t, h.gwTS.URL, http.MethodGet, PathStats, nil,
			clusterPrincipal, testKey('Z'), time.Now(), "deadbeef02")
		if ref.status != http.StatusUnauthorized || got.status != ref.status {
			t.Errorf("wrong-key statuses: gateway %d, single %d, want 401 from both", got.status, ref.status)
		}
		if !bytes.Equal(got.body, ref.body) {
			t.Errorf("wrong-key 401 bodies diverge\n gateway: %q\n single:  %q", got.body, ref.body)
		}
	})
}

// joinBody is the POST /v1/cluster/peers payload for peerURL.
func joinBody(peerURL string) []byte {
	return []byte(fmt.Sprintf(`{"url":%q}`, peerURL))
}

// adminSend fires one membership admin request at the gateway, signed
// as principal (with its harness keyring key) when signed is true.
func (h *clusterHarness) adminSend(t *testing.T, method, pathQuery string, body []byte, signed bool, principal string) rawResponse {
	t.Helper()
	var key []byte
	at, nonce := time.Time{}, ""
	if signed {
		switch principal {
		case adminPrincipal:
			key = testKey('D')
		case clusterPrincipal:
			key = testKey('A')
		default:
			t.Fatalf("adminSend: no key for principal %q", principal)
		}
		at = time.Now()
		nonceCounter++
		nonce = fmt.Sprintf("ad0%013d", nonceCounter)
	} else {
		principal = ""
	}
	return h.send(t, h.gwTS.URL, method, pathQuery, body, principal, key, at, nonce)
}

// leavePath is the DELETE route for one peer, URL path-escaped.
func leavePath(peerURL string) string {
	return PathClusterPeers + "/" + url.PathEscape(peerURL)
}

// TestClusterShardDeathMidBatch kills one of three shards and proves
// the contract of the ISSUE: the in-flight batch degrades into
// structured per-item errors for exactly the dead shard's items, the
// gateway evicts the shard, the next batch fully succeeds on the
// survivors, and a probe pass after recovery re-converges the ring to
// byte-identical behavior.
func TestClusterShardDeathMidBatch(t *testing.T) {
	h := newClusterHarness(t, 3, false)
	ctx := context.Background()
	body := freqBatchBody(t, 96, 11)

	// Victim: whichever shard owns the first batch item, so the test is
	// deterministic regardless of ring layout.
	var items BatchRequest
	if err := json.Unmarshal(body, &items); err != nil {
		t.Fatal(err)
	}
	owner, ok := h.gw.ownerPeer(h.gw.keyFor(items.Items[0].X, items.Items[0].Y))
	if !ok {
		t.Fatal("ring empty")
	}
	victim := -1
	for i, ts := range h.shards {
		if ts.URL == owner.url {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("owner %s not among shards", owner.url)
	}
	h.killShard(t, victim)

	resp := h.send(t, h.gwTS.URL, http.MethodPost, PathFreqBatch, body, "", nil, time.Time{}, "")
	if resp.status != http.StatusOK {
		t.Fatalf("batch with one dead shard returned %d: %s", resp.status, resp.body)
	}
	var out FreqBatchResponse
	if err := json.Unmarshal(resp.body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(items.Items) {
		t.Fatalf("merge lost items: %d results for %d items", len(out.Results), len(items.Items))
	}
	wantErr := fmt.Sprintf("shard %d unreachable", owner.index)
	failed, succeeded := 0, 0
	for i, res := range out.Results {
		switch {
		case res.Error == "":
			succeeded++
			if res.Freq == nil {
				t.Errorf("item %d: no error but no freq either", i)
			}
		case res.Error == wantErr:
			failed++
		default:
			t.Errorf("item %d: unexpected error %q", i, res.Error)
		}
	}
	if failed == 0 || succeeded == 0 {
		t.Fatalf("want a mix of per-item errors and successes, got %d failed / %d ok", failed, succeeded)
	}
	if res := out.Results[0]; res.Error != wantErr {
		t.Errorf("victim-owned item 0 error = %q, want %q", res.Error, wantErr)
	}

	// The refused connections evicted the victim, so the very next batch
	// routes entirely to survivors and fully succeeds.
	if h.gw.ring.Contains(owner.url) {
		t.Fatal("dead shard still on the ring after refused fanout")
	}
	resp = h.send(t, h.gwTS.URL, http.MethodPost, PathFreqBatch, body, "", nil, time.Time{}, "")
	if resp.status != http.StatusOK {
		t.Fatalf("post-eviction batch returned %d", resp.status)
	}
	out = FreqBatchResponse{}
	if err := json.Unmarshal(resp.body, &out); err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		if res.Error != "" {
			t.Fatalf("post-eviction item %d still failing: %q", i, res.Error)
		}
	}

	// Recovery: revive the shard, run one probe pass, and the ring
	// converges back — the full differential surface holds again.
	h.reviveShard(t, victim)
	h.gw.ProbeOnce(ctx)
	if !h.gw.ring.Contains(owner.url) {
		t.Fatal("probe pass did not restore the recovered shard")
	}
	h.assertIdentical(t, http.MethodPost, PathFreqBatch, body, false)
	h.assertIdentical(t, http.MethodGet, PathFreq+"?x=6000&y=6000&r=900", nil, false)

	snap := fetchSnapshot(t, h.gwTS.URL)
	if snap.Counters[MetricClusterEvictions] < 1 {
		t.Errorf("evictions counter = %d, want >= 1", snap.Counters[MetricClusterEvictions])
	}
	if snap.Counters[MetricClusterRestores] < 1 {
		t.Errorf("restores counter = %d, want >= 1", snap.Counters[MetricClusterRestores])
	}
}

// TestClusterSingleQueryFailsOver: a plain GET whose owner is dead must
// not error — the gateway evicts the owner mid-request and retries
// against the key's new owner, still answering byte-identically.
func TestClusterSingleQueryFailsOver(t *testing.T) {
	h := newClusterHarness(t, 3, false)
	const pathQuery = PathFreq + "?x=6000&y=6000&r=900"
	owner, ok := h.gw.ownerPeer(h.gw.keyFor(6000, 6000))
	if !ok {
		t.Fatal("ring empty")
	}
	for i, ts := range h.shards {
		if ts.URL == owner.url {
			h.killShard(t, i)
		}
	}
	h.assertIdentical(t, http.MethodGet, pathQuery, nil, false)
	if h.gw.ring.Contains(owner.url) {
		t.Error("failover did not evict the dead owner")
	}
	if now, _ := h.gw.ownerPeer(h.gw.keyFor(6000, 6000)); now == owner {
		t.Error("key still resolves to the dead shard")
	}
}

// TestClusterReadyzTracksFleet: with every shard dead the gateway fails
// its own readiness and answers queries 503 "no healthy shards"; one
// probe pass after recovery flips both back.
func TestClusterReadyzTracksFleet(t *testing.T) {
	h := newClusterHarness(t, 2, false)
	ctx := context.Background()
	for i := range h.shards {
		h.killShard(t, i)
	}
	h.gw.ProbeOnce(ctx)
	if n := h.gw.healthyCount(); n != 0 {
		t.Fatalf("healthyCount = %d after killing the fleet", n)
	}

	assertStatus := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(h.gwTS.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d (%s)", path, resp.StatusCode, want, body)
		}
	}
	assertStatus(obs.PathReadyz, http.StatusServiceUnavailable)
	assertStatus(obs.PathHealthz, http.StatusOK) // liveness is about the gateway process

	resp := h.send(t, h.gwTS.URL, http.MethodGet, PathFreq+"?x=1&y=2&r=100", nil, "", nil, time.Time{}, "")
	if resp.status != http.StatusServiceUnavailable {
		t.Fatalf("query against a dead fleet = %d, want 503", resp.status)
	}
	if !strings.Contains(string(resp.body), "no healthy shards") {
		t.Errorf("503 body does not name the condition: %s", resp.body)
	}
	if resp.retryAfter == "" {
		t.Error("fleet-down 503 carries no Retry-After")
	}

	for i := range h.shards {
		h.reviveShard(t, i)
	}
	h.gw.ProbeOnce(ctx)
	assertStatus(obs.PathReadyz, http.StatusOK)
	h.assertIdentical(t, http.MethodGet, PathFreq+"?x=1&y=2&r=100", nil, false)

	// Drain still wins over a healthy fleet, mirroring gspd.
	h.gw.Drain()
	assertStatus(obs.PathReadyz, http.StatusServiceUnavailable)
}

// TestClusterGatewayAdmissionAndLimits: the gateway enforces its own
// admission and body caps with the same envelopes as a gspd shard.
func TestClusterGatewayAdmissionAndLimits(t *testing.T) {
	_, svc := wireFixture(t)
	quiet := WithLogger(log.New(io.Discard, "", 0))
	shard := httptest.NewServer(NewGSPServer(svc, quiet))
	defer shard.Close()

	gw, err := NewClusterGateway([]string{shard.URL},
		WithLogger(log.New(io.Discard, "", 0)),
		WithAdmission(1, 0, 0),
		WithMaxBody(128),
		WithMaxBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	defer ts.Close()

	// Body over the gateway's own cap → 413 before any shard is dialed.
	resp, err := http.Post(ts.URL+PathFreqBatch, "application/json",
		bytes.NewReader(freqBatchBody(t, 8, 3)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", resp.StatusCode)
	}

	// Batch over the gateway's item cap → 400 with the shared message.
	small := []byte(`{"items":[{"x":1,"y":1,"r":9},{"x":1,"y":1,"r":9},{"x":1,"y":1,"r":9},{"x":1,"y":1,"r":9},{"x":1,"y":1,"r":9}]}`)
	resp, err = http.Post(ts.URL+PathFreqBatch, "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "exceeds limit 4") {
		t.Errorf("oversized batch = %d %s, want 400 naming the limit", resp.StatusCode, body)
	}

	// A join body over the cap is the same 413 as an oversized batch.
	join := joinBody("http://" + strings.Repeat("a", 200))
	resp, err = http.Post(ts.URL+PathClusterPeers, "application/json", bytes.NewReader(join))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || string(body) != `{"error":"request body exceeds 128 bytes"}`+"\n" {
		t.Errorf("oversized join = %d %s, want 413 naming the cap", resp.StatusCode, body)
	}

	// Admission: a batch holding the only slot sheds a concurrent one.
	release, ok := gw.admitBatch(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, PathFreqBatch, nil), 1)
	if !ok {
		t.Fatal("first admit failed")
	}
	resp, err = http.Get(ts.URL + PathFreq + "?x=1&y=2&r=50")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request at capacity = %d, want 503 shed", resp.StatusCode)
	}
	release()
	resp, err = http.Get(ts.URL + PathFreq + "?x=1&y=2&r=50")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release request = %d, want 200", resp.StatusCode)
	}
}

// syncBuffer is a log sink a test can read while handlers write to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestClusterUpstreamErrorsHideShardAddress: when a shard call times
// out, net/http's error names the shard's internal URL and the
// forwarded query. The client's 502 and the batch's item error must
// name the shard by index only; the detail goes to the gateway's log.
func TestClusterUpstreamErrorsHideShardAddress(t *testing.T) {
	var logs syncBuffer
	h := newClusterHarness(t, 2, false,
		WithProbeTimeout(20*time.Millisecond), // 80 ms per attempt
		WithLogger(log.New(&logs, "", 0)))
	owner, ok := h.gw.ownerPeer(h.gw.keyFor(6000, 6000))
	if !ok {
		t.Fatal("ring empty")
	}
	host := hostOf(t, owner.url)
	h.kill.lag(host, time.Second)
	defer h.kill.lag(host, 0)

	get := h.send(t, h.gwTS.URL, http.MethodGet, PathFreq+"?x=6000&y=6000&r=900", nil, "", nil, time.Time{}, "")
	if want := `{"error":"upstream shard error"}` + "\n"; get.status != http.StatusBadGateway || string(get.body) != want {
		t.Errorf("GET via a timed-out shard = %d %s, want 502 %s", get.status, get.body, want)
	}
	batch := h.send(t, h.gwTS.URL, http.MethodPost, PathFreqBatch,
		[]byte(`{"items":[{"x":6000,"y":6000,"r":900}]}`), "", nil, time.Time{}, "")
	if want := fmt.Sprintf(`{"results":[{"error":"shard %d failed"}]}`+"\n", owner.index); batch.status != http.StatusOK || string(batch.body) != want {
		t.Errorf("batch via a timed-out shard = %d %s, want 200 %s", batch.status, batch.body, want)
	}
	for _, body := range [][]byte{get.body, batch.body} {
		if bytes.Contains(body, []byte(host)) {
			t.Errorf("response leaks the shard's address %s: %s", host, body)
		}
	}
	logged := logs.String()
	for _, want := range []string{
		fmt.Sprintf("shard %d: wire: %s", owner.index, PathFreq),
		fmt.Sprintf("shard %d failed: wire: %s", owner.index, PathFreqBatch),
	} {
		if !strings.Contains(logged, want) || !strings.Contains(logged, host) {
			t.Errorf("gateway log lacks %q with the shard's address:\n%s", want, logged)
		}
	}
}

// TestClusterRelayRefusesBadShardOutput: the gateway relays shard bytes
// but still checks them. A GET body that is not JSON answers 502, and a
// batch reply one result short fails every item of that shard; none of
// the stub shard's bytes reach the client.
func TestClusterRelayRefusesBadShardOutput(t *testing.T) {
	const sentinel = `{"freq":[7,7,7]}`
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case obs.PathReadyz:
			io.WriteString(w, `{"status":"ready"}`)
		case PathFreq:
			io.WriteString(w, `{"freq":[1,`)
		case PathFreqBatch:
			var req BatchRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Items) == 0 {
				http.Error(w, "bad batch", http.StatusBadRequest)
				return
			}
			results := strings.Repeat(sentinel+",", len(req.Items)-1)
			io.WriteString(w, `{"results":[`+strings.TrimSuffix(results, ",")+`]}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer stub.Close()
	gw, err := NewClusterGateway([]string{stub.URL},
		WithLogger(log.New(io.Discard, "", 0)),
		WithPeerClientOptions(fastBackoff()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	defer ts.Close()

	resp, err := http.Get(ts.URL + PathFreq + "?x=1&y=2&r=100")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || bytes.Contains(body, []byte(`"freq"`)) {
		t.Errorf("GET over a truncated shard body = %d %s, want 502 without the shard's bytes", resp.StatusCode, body)
	}

	resp, err = http.Post(ts.URL+PathFreqBatch, "application/json", bytes.NewReader(freqBatchBody(t, 3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var out FreqBatchResponse
	if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusOK || len(out.Results) != 3 {
		t.Fatalf("batch over a short shard reply = %d %s (%v), want 200 with 3 results", resp.StatusCode, body, err)
	}
	for i, res := range out.Results {
		if !strings.HasPrefix(res.Error, "shard 0 failed") || res.Freq != nil {
			t.Errorf("item %d = %+v, want the error shard 0 failed", i, res)
		}
	}
	if bytes.Contains(body, []byte("7,7,7")) {
		t.Errorf("the short reply's results reached the client: %s", body)
	}
}

// TestClusterMetricsSurface: the gateway's registry exposes the fleet
// gauges and per-shard counters promised by the ISSUE.
func TestClusterMetricsSurface(t *testing.T) {
	h := newClusterHarness(t, 3, false)
	h.send(t, h.gwTS.URL, http.MethodPost, PathFreqBatch, freqBatchBody(t, 48, 21), "", nil, time.Time{}, "")
	snap := fetchSnapshot(t, h.gwTS.URL)

	for _, name := range []string{
		MetricClusterPeers, MetricClusterHealthy, MetricClusterUnhealthy,
		MetricClusterEvictions, MetricClusterRestores,
		MetricClusterProbesOK, MetricClusterProbesFail,
		"cluster.shard.0.inflight", "cluster.shard.1.errors", "cluster.shard.2.healthy",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("metric %q missing from snapshot", name)
		}
	}
	if got := snap.Counters[MetricClusterPeers]; got != 3 {
		t.Errorf("cluster.peers = %d, want 3", got)
	}
	if got := snap.Counters[MetricClusterHealthy]; got != 3 {
		t.Errorf("cluster.healthy = %d, want 3", got)
	}
	lat, ok := snap.Latencies[MetricClusterFanout]
	if !ok || lat.Count == 0 {
		t.Errorf("fanout latency not recorded: %+v (present=%v)", lat, ok)
	}
}

// TestClusterConcurrentFanoutDuringMutation is the satellite race
// stress: batches fan out while a shard flaps dead/alive and probe
// passes mutate the ring concurrently. Run under -race this proves the
// gateway's eviction/restore CAS discipline; the assertions prove every
// response stays structurally sound (full-length, each item either a
// result or a shard error).
func TestClusterConcurrentFanoutDuringMutation(t *testing.T) {
	h := newClusterHarness(t, 3, false)
	ctx := context.Background()
	const iters = 30

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Flapper: toggles shard 1 and immediately reconciles via probe.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.killShard(t, 1)
			h.gw.ProbeOnce(ctx)
			h.reviveShard(t, 1)
			h.gw.ProbeOnce(ctx)
		}
	}()

	// Senders: concurrent batch fanouts the whole time.
	var senders sync.WaitGroup
	for s := 0; s < 4; s++ {
		senders.Add(1)
		go func(s int) {
			defer senders.Done()
			body := freqBatchBody(t, 32, uint64(100+s))
			for i := 0; i < iters; i++ {
				resp := h.send(t, h.gwTS.URL, http.MethodPost, PathFreqBatch, body, "", nil, time.Time{}, "")
				if resp.status != http.StatusOK {
					t.Errorf("sender %d iter %d: status %d", s, i, resp.status)
					return
				}
				var out FreqBatchResponse
				if err := json.Unmarshal(resp.body, &out); err != nil {
					t.Errorf("sender %d iter %d: %v", s, i, err)
					return
				}
				if len(out.Results) != 32 {
					t.Errorf("sender %d iter %d: %d results, want 32", s, i, len(out.Results))
					return
				}
				for j, res := range out.Results {
					if res.Error == "" && res.Freq == nil {
						t.Errorf("sender %d iter %d item %d: neither result nor error", s, i, j)
						return
					}
				}
			}
		}(s)
	}
	senders.Wait()
	close(stop)
	wg.Wait()

	// Quiesce and verify the fleet converged back to full health.
	h.reviveShard(t, 1)
	h.gw.ProbeOnce(ctx)
	if n := h.gw.healthyCount(); n != 3 {
		t.Errorf("fleet did not converge: %d healthy of 3", n)
	}
	h.assertIdentical(t, http.MethodPost, PathFreqBatch, freqBatchBody(t, 24, 77), false)
}

// TestClusterProberReconcilesAtBoot is the regression test for the
// prober blind-spot bug: StartProber must run one synchronous
// reconciliation pass before its first tick, so a shard that is dead at
// gateway boot is off the ring before the gateway serves its first
// request — not after a full probeInterval of ErrPeerUnreachable
// failovers. The probe interval is an hour here: only the boot pass can
// evict the dead shard, and with the pre-fix StartProber the spray
// below routes ~1/3 of its queries into the dead host.
func TestClusterProberReconcilesAtBoot(t *testing.T) {
	h := newClusterHarness(t, 3, false, WithProbeInterval(time.Hour))
	deadHost := hostOf(t, h.shards[0].URL)
	h.killShard(t, 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.gw.StartProber(ctx)

	if h.gw.ring.Contains(h.shards[0].URL) {
		t.Fatal("dead-at-boot shard still on the ring after StartProber returned")
	}

	// From the first request on, no traffic may be routed at the dead
	// shard (the boot probe itself is exempt — it must dial to learn).
	var mu sync.Mutex
	dialedDead := 0
	h.kill.observe(func(req *http.Request) {
		if req.URL.Host == deadHost && req.URL.Path != obs.PathReadyz {
			mu.Lock()
			dialedDead++
			mu.Unlock()
		}
	})
	defer h.kill.observe(nil)
	rng := rand.New(rand.NewPCG(41, 0))
	for i := 0; i < 60; i++ {
		x, y := rng.Float64()*12_000, rng.Float64()*12_000
		pathQuery := fmt.Sprintf("%s?x=%.0f&y=%.0f&r=400", PathFreq, x, y)
		resp := h.send(t, h.gwTS.URL, http.MethodGet, pathQuery, nil, "", nil, time.Time{}, "")
		if resp.status != http.StatusOK {
			t.Fatalf("query %d after boot probe = %d: %s", i, resp.status, resp.body)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if dialedDead != 0 {
		t.Errorf("%d requests routed to the dead-at-boot shard after StartProber", dialedDead)
	}
}

// TestClusterRetryAfterSubSecondHint is the regression test for the
// dropped-header bug: a shard shedding with a sub-second Retry-After
// hint must surface as a gateway 503 whose Retry-After is floored to 1,
// not silently dropped (which sends clients into full exponential
// backoff). Whole-second hints pass through; an absent hint stays
// absent.
func TestClusterRetryAfterSubSecondHint(t *testing.T) {
	gw, err := NewClusterGateway([]string{"http://unused.invalid:1"},
		WithLogger(log.New(io.Discard, "", 0)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		hint time.Duration
		want string
	}{
		{"sub_second_floored", 500 * time.Millisecond, "1"},
		{"whole_seconds_pass", 2 * time.Second, "2"},
		{"no_hint_no_header", 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			gw.writeUpstreamError(rec, &OverloadedError{
				Path: PathFreq, Message: "shed", RetryAfter: tc.hint,
			})
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("status = %d, want 503", rec.Code)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.want {
				t.Errorf("Retry-After = %q, want %q (hint %s)", got, tc.want, tc.hint)
			}
		})
	}
}

// TestClusterReplicaReads covers the replicated single-GET path: the
// common case stays one RPC under the hedging delay, a dead primary
// fails over to the next replica inside the same request, and a slow
// primary is hedged — with the replica.* metrics booking each event.
func TestClusterReplicaReads(t *testing.T) {
	const pathQuery = PathFreq + "?x=6000&y=6000&r=900"

	t.Run("common_case_one_rpc", func(t *testing.T) {
		h := newClusterHarness(t, 3, false, WithReplicas(3), WithHedgeDelay(2*time.Second))
		var mu sync.Mutex
		freqCalls := 0
		h.kill.observe(func(req *http.Request) {
			if req.URL.Path == PathFreq {
				mu.Lock()
				freqCalls++
				mu.Unlock()
			}
		})
		h.assertIdentical(t, http.MethodGet, pathQuery, nil, false)
		mu.Lock()
		defer mu.Unlock()
		if freqCalls != 1 {
			t.Errorf("healthy replicated GET made %d shard calls, want 1", freqCalls)
		}
	})

	t.Run("dead_primary_fails_over", func(t *testing.T) {
		h := newClusterHarness(t, 3, false, WithReplicas(2), WithHedgeDelay(2*time.Second))
		replicas := h.gw.replicaPeers(h.gw.keyFor(6000, 6000))
		if len(replicas) != 2 {
			t.Fatalf("replica set size %d, want 2", len(replicas))
		}
		for i, ts := range h.shards {
			if ts.URL == replicas[0].url {
				h.killShard(t, i)
			}
		}
		h.assertIdentical(t, http.MethodGet, pathQuery, nil, false)
		if h.gw.ring.Contains(replicas[0].url) {
			t.Error("dead primary not evicted by the replica failover")
		}
		snap := fetchSnapshot(t, h.gwTS.URL)
		if snap.Counters[MetricClusterReplicaFailovers] < 1 {
			t.Errorf("replica.failovers = %d, want >= 1", snap.Counters[MetricClusterReplicaFailovers])
		}
		if snap.Counters[MetricClusterReplicaSecondaryWins] < 1 {
			t.Errorf("replica.wins.secondary = %d, want >= 1", snap.Counters[MetricClusterReplicaSecondaryWins])
		}
	})

	t.Run("slow_primary_hedged", func(t *testing.T) {
		h := newClusterHarness(t, 3, false, WithReplicas(2), WithHedgeDelay(5*time.Millisecond))
		replicas := h.gw.replicaPeers(h.gw.keyFor(6000, 6000))
		h.kill.lag(hostOf(t, replicas[0].url), 300*time.Millisecond)
		defer h.kill.lag(hostOf(t, replicas[0].url), 0)
		h.assertIdentical(t, http.MethodGet, pathQuery, nil, false)
		snap := fetchSnapshot(t, h.gwTS.URL)
		if snap.Counters[MetricClusterReplicaHedges] < 1 {
			t.Errorf("replica.hedges = %d, want >= 1", snap.Counters[MetricClusterReplicaHedges])
		}
		if snap.Counters[MetricClusterReplicaSecondaryWins] < 1 {
			t.Errorf("replica.wins.secondary = %d, want >= 1", snap.Counters[MetricClusterReplicaSecondaryWins])
		}
	})
}

// TestClusterDifferentialReplicas re-runs the full differential surface
// with replication turned all the way up and an aggressive hedging
// delay, so most GETs race several shards: whoever wins, the response
// must stay byte-identical to the single gspd.
func TestClusterDifferentialReplicas(t *testing.T) {
	h := newClusterHarness(t, 3, false, WithReplicas(3), WithHedgeDelay(time.Millisecond))
	for _, tc := range differentialSurface(t) {
		t.Run(tc.name, func(t *testing.T) {
			h.assertIdentical(t, tc.method, tc.pathQuery, tc.body, false)
		})
	}
}

// TestClusterMembershipAdminAuth pins the admin surface's tenant rules,
// mirroring the budget endpoints: unsigned mutations 401 under auth, a
// non-admin tenant's valid signature 403s, the admin principal passes,
// reads stay open to any verified principal — and a gateway with auth
// but no configured admin refuses every mutation (fail closed).
func TestClusterMembershipAdminAuth(t *testing.T) {
	h := newClusterHarness(t, 2, true, WithClusterAdmin(adminPrincipal))
	spare := h.newShard(t)

	if resp := h.adminSend(t, http.MethodPost, PathClusterPeers, joinBody(spare.URL), false, ""); resp.status != http.StatusUnauthorized {
		t.Errorf("unsigned join = %d, want 401", resp.status)
	}
	resp := h.adminSend(t, http.MethodPost, PathClusterPeers, joinBody(spare.URL), true, clusterPrincipal)
	if resp.status != http.StatusForbidden {
		t.Errorf("tenant-signed join = %d, want 403 (%s)", resp.status, resp.body)
	}
	if !strings.Contains(string(resp.body), "principal_mismatch") {
		t.Errorf("403 body lacks the structured reason: %s", resp.body)
	}
	resp = h.adminSend(t, http.MethodPost, PathClusterPeers, joinBody(spare.URL), true, adminPrincipal)
	if resp.status != http.StatusOK {
		t.Fatalf("admin-signed join = %d (%s)", resp.status, resp.body)
	}
	var peers ClusterPeersResponse
	if err := json.Unmarshal(resp.body, &peers); err != nil {
		t.Fatal(err)
	}
	if len(peers.Peers) != 3 {
		t.Errorf("post-join membership %d, want 3", len(peers.Peers))
	}

	// Reads are open to any verified principal.
	if resp := h.adminSend(t, http.MethodGet, PathClusterPeers, nil, true, clusterPrincipal); resp.status != http.StatusOK {
		t.Errorf("tenant-signed list = %d, want 200", resp.status)
	}

	if resp := h.adminSend(t, http.MethodDelete, leavePath(spare.URL), nil, true, clusterPrincipal); resp.status != http.StatusForbidden {
		t.Errorf("tenant-signed leave = %d, want 403", resp.status)
	}
	if resp := h.adminSend(t, http.MethodDelete, leavePath(spare.URL), nil, true, adminPrincipal); resp.status != http.StatusOK {
		t.Errorf("admin-signed leave = %d (%s)", resp.status, resp.body)
	}

	// No admin configured: even the admin principal's valid signature is
	// refused — the gateway fails closed rather than guessing a tenant.
	closed := newClusterHarness(t, 2, true)
	if resp := closed.adminSend(t, http.MethodPost, PathClusterPeers, joinBody(spare.URL), true, adminPrincipal); resp.status != http.StatusForbidden {
		t.Errorf("join without a configured admin = %d, want 403", resp.status)
	}
}

// TestClusterMembershipChurnDifferential is the acceptance-criteria
// e2e: a replica-enabled fleet undergoing a join → leave → rejoin churn
// sequence must stay byte-identical to a single gspd across the full
// endpoint surface after every transition, with auth both off and on.
func TestClusterMembershipChurnDifferential(t *testing.T) {
	for _, withAuth := range []bool{false, true} {
		t.Run(fmt.Sprintf("auth=%v", withAuth), func(t *testing.T) {
			h := newClusterHarness(t, 2, withAuth,
				WithReplicas(2),
				WithClusterAdmin(adminPrincipal))
			spare := h.newShard(t)
			surface := differentialSurface(t)
			runSurface := func(stage string) {
				t.Helper()
				for _, tc := range surface {
					h.assertIdentical(t, tc.method, tc.pathQuery, tc.body, withAuth)
				}
				if t.Failed() {
					t.Fatalf("surface diverged after %s", stage)
				}
			}
			join := func(u string) {
				t.Helper()
				if resp := h.adminSend(t, http.MethodPost, PathClusterPeers, joinBody(u), withAuth, adminPrincipal); resp.status != http.StatusOK {
					t.Fatalf("join %s = %d (%s)", u, resp.status, resp.body)
				}
			}
			leave := func(u string) {
				t.Helper()
				if resp := h.adminSend(t, http.MethodDelete, leavePath(u), nil, withAuth, adminPrincipal); resp.status != http.StatusOK {
					t.Fatalf("leave %s = %d (%s)", u, resp.status, resp.body)
				}
			}

			runSurface("boot")
			join(spare.URL)
			runSurface("join")
			leave(h.shards[0].URL)
			runSurface("leave")
			join(h.shards[0].URL)
			runSurface("rejoin")

			snap := fetchSnapshot(t, h.gwTS.URL)
			if got := snap.Counters[MetricClusterJoins]; got != 2 {
				t.Errorf("membership.joins = %d, want 2", got)
			}
			if got := snap.Counters[MetricClusterLeaves]; got != 1 {
				t.Errorf("membership.leaves = %d, want 1", got)
			}
			if got := snap.Counters[MetricClusterPeers]; got != 3 {
				t.Errorf("cluster.peers = %d, want 3 after churn", got)
			}
		})
	}
}

// TestClusterJoinCityCheckProtocol pins what a join sends to the
// fleet: after the joiner's readiness probe, exactly one GET of
// /v1/stats, /v1/pois and /v1/freq (at the city's center, radius one
// cell) to one donor, and the same three to the joiner — nothing else.
func TestClusterJoinCityCheckProtocol(t *testing.T) {
	h := newClusterHarness(t, 2, false)
	spare := h.newShard(t)

	resp := h.send(t, h.single.URL, http.MethodGet, PathStats, nil, "", nil, time.Time{}, "")
	var stats StatsResponse
	if err := json.Unmarshal(resp.body, &stats); err != nil {
		t.Fatal(err)
	}
	freq := PathFreq + "?" + locationParams(stats.Bounds.Center(), cluster.DefaultCellSize).Encode()
	donorWant := map[string]int{"GET " + PathStats: 1, "GET " + PathPOIs: 1, "GET " + freq: 1}
	joinerWant := maps.Clone(donorWant)
	joinerWant["GET "+obs.PathReadyz] = 1

	var mu sync.Mutex
	seen := make(map[string]map[string]int) // host → "METHOD path?query" → count
	h.kill.observe(func(req *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if seen[req.URL.Host] == nil {
			seen[req.URL.Host] = make(map[string]int)
		}
		seen[req.URL.Host][req.Method+" "+req.URL.RequestURI()]++
	})
	if resp := h.adminSend(t, http.MethodPost, PathClusterPeers, joinBody(spare.URL), false, ""); resp.status != http.StatusOK {
		t.Fatalf("join = %d (%s)", resp.status, resp.body)
	}
	h.kill.observe(nil)

	mu.Lock()
	defer mu.Unlock()
	joiner := hostOf(t, spare.URL)
	if got := seen[joiner]; !maps.Equal(got, joinerWant) {
		t.Errorf("joiner saw %v, want %v", got, joinerWant)
	}
	delete(seen, joiner)
	if len(seen) != 1 {
		t.Fatalf("the join reached %d members, want one donor: %v", len(seen), seen)
	}
	for host, got := range seen {
		if !maps.Equal(got, donorWant) {
			t.Errorf("donor %s saw %v, want %v", host, got, donorWant)
		}
	}
	snap := fetchSnapshot(t, h.gwTS.URL)
	if got := snap.Counters[MetricClusterJoinErrors]; got != 0 {
		t.Errorf("membership.join_errors = %d, want 0", got)
	}
	if got := snap.Counters[MetricClusterJoins]; got != 1 {
		t.Errorf("membership.joins = %d, want 1", got)
	}
}

// TestClusterJoinDonorFailure: when the member the city check reads
// from does not answer, the join is refused with 502, and the body names
// the shard by index, never by URL.
func TestClusterJoinDonorFailure(t *testing.T) {
	h := newClusterHarness(t, 2, false)
	spare := h.newShard(t)
	for i := range h.shards {
		h.killShard(t, i)
	}
	resp := h.adminSend(t, http.MethodPost, PathClusterPeers, joinBody(spare.URL), false, "")
	if resp.status != http.StatusBadGateway {
		t.Fatalf("join with a dead donor = %d, want 502 (%s)", resp.status, resp.body)
	}
	if !strings.Contains(string(resp.body), "city check failed") {
		t.Errorf("502 body does not name the city check: %s", resp.body)
	}
	for _, s := range h.shards {
		if strings.Contains(string(resp.body), hostOf(t, s.URL)) {
			t.Errorf("502 body leaks a shard URL: %s", resp.body)
		}
	}
	if h.gw.ring.Contains(spare.URL) {
		t.Error("the joiner is on the ring")
	}
	if got := fetchSnapshot(t, h.gwTS.URL).Counters[MetricClusterJoinErrors]; got != 1 {
		t.Errorf("membership.join_errors = %d, want 1", got)
	}
}

// TestClusterJoinRejectsOnePOIDifference: a joiner whose city differs
// from the fleet's by one retyped POI, lying more than a cell from
// every cell center the join would move onto it, must still be refused.
// Otherwise a query routed to the joiner whose disk covers that POI
// answers differently than one gspd.
func TestClusterJoinRejectsOnePOIDifference(t *testing.T) {
	h := newClusterHarness(t, 3, false)
	city, _ := wireFixture(t)
	cs := cluster.DefaultCellSize
	pois := city.City.POIs()

	// The moved cells depend on the joiner's URL, so take its listener
	// first and retry on another port if no POI lies far enough out.
	var joiner *httptest.Server
	var target int       // index of the POI to retype
	var probe url.Values // a query at a moved cell center covering it
	for attempt := 0; attempt < 8 && joiner == nil; attempt++ {
		ts := httptest.NewUnstartedServer(nil)
		joinURL := "http://" + ts.Listener.Addr().String()
		after := cluster.New(cluster.DefaultVirtualNodes)
		for _, s := range h.shards {
			after.Add(s.URL)
		}
		after.Add(joinURL)
		b := city.City.Bounds
		x0, y0 := cluster.CellOf(b.MinX, b.MinY, cs)
		x1, y1 := cluster.CellOf(b.MaxX, b.MaxY, cs)
		var moved []geo.Point
		for cx := x0; cx <= x1; cx++ {
			for cy := y0; cy <= y1; cy++ {
				if owner, _ := after.Owner(cluster.Key("", cx, cy)); owner == joinURL {
					moved = append(moved, geo.Point{X: (float64(cx) + 0.5) * cs, Y: (float64(cy) + 0.5) * cs})
				}
			}
		}
		for i, p := range pois {
			near, d := geo.Point{}, -1.0
			for _, c := range moved {
				if dc := geo.Dist(p.Pos, c); d < 0 || dc < d {
					near, d = c, dc
				}
			}
			if d > cs {
				joiner, target, probe = ts, i, locationParams(near, math.Ceil(d)+1)
				break
			}
		}
		if joiner == nil {
			ts.Close()
		}
	}
	if joiner == nil {
		t.Fatal("no POI lies more than a cell from every moved cell center")
	}
	pois[target].Type = (pois[target].Type + 1) % poi.TypeID(city.City.M())
	alienCity, err := gsp.NewCity(city.City.Name, city.City.Bounds, city.City.Types, pois)
	if err != nil {
		t.Fatal(err)
	}
	joiner.Config.Handler = NewGSPServer(gsp.NewService(alienCity, 1<<12), h.shardOpts...)
	joiner.Start()
	defer joiner.Close()

	resp := h.adminSend(t, http.MethodPost, PathClusterPeers, joinBody(joiner.URL), false, "")
	if resp.status != http.StatusConflict {
		t.Errorf("join of a one-POI-different city = %d, want 409 (%s)", resp.status, resp.body)
	}
	if h.gw.ring.Contains(joiner.URL) {
		t.Error("the joiner is on the ring")
	}
	if _, ok := h.gw.table.get(joiner.URL); ok {
		t.Error("the joiner is in the peer table")
	}
	h.assertIdentical(t, http.MethodGet, PathFreq+"?"+probe.Encode(), nil, false)
}

// TestClusterJoinRejectsMismatchedCity: a candidate shard serving a
// different city fails the join's city check, so the join must be
// refused with a 409 and the fleet must keep serving byte-identically —
// admitting the alien shard would break the gateway's core invariant.
func TestClusterJoinRejectsMismatchedCity(t *testing.T) {
	h := newClusterHarness(t, 2, false)
	p := citygen.Beijing(97)
	p.NumPOIs = 800
	p.NumTypes = 60
	p.Width, p.Height = 12_000, 12_000
	alienCity, err := citygen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	alien := httptest.NewServer(NewGSPServer(gsp.NewService(alienCity.City, 1<<12),
		WithLogger(log.New(io.Discard, "", 0))))
	defer alien.Close()

	resp := h.adminSend(t, http.MethodPost, PathClusterPeers, joinBody(alien.URL), false, "")
	if resp.status != http.StatusConflict {
		t.Fatalf("alien join = %d, want 409 (%s)", resp.status, resp.body)
	}
	if !strings.Contains(string(resp.body), "city check") {
		t.Errorf("409 body does not name the city check: %s", resp.body)
	}
	if h.gw.ring.Contains(alien.URL) {
		t.Error("alien shard leaked onto the ring")
	}
	if _, ok := h.gw.table.get(alien.URL); ok {
		t.Error("alien shard leaked into the peer table")
	}
	snap := fetchSnapshot(t, h.gwTS.URL)
	if got := snap.Counters[MetricClusterJoinErrors]; got < 1 {
		t.Errorf("membership.join_errors = %d, want >= 1", got)
	}
	h.assertIdentical(t, http.MethodGet, PathFreq+"?x=6000&y=6000&r=900", nil, false)
	h.assertIdentical(t, http.MethodPost, PathFreqBatch, freqBatchBody(t, 32, 55), false)
}

// TestClusterConcurrentMembershipChurn is the satellite race stress:
// admin joins and leaves churn a spare shard while single GETs and
// batch fan-outs hammer the gateway. Under -race this proves the peer
// table / ring / metrics locking; the assertions prove every in-flight
// response stays structurally sound across membership transitions.
func TestClusterConcurrentMembershipChurn(t *testing.T) {
	h := newClusterHarness(t, 3, false, WithReplicas(2))
	spare := h.newShard(t)

	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; i < 10; i++ {
			if resp := h.adminSend(t, http.MethodPost, PathClusterPeers, joinBody(spare.URL), false, ""); resp.status != http.StatusOK {
				t.Errorf("churn join %d = %d (%s)", i, resp.status, resp.body)
				return
			}
			if resp := h.adminSend(t, http.MethodDelete, leavePath(spare.URL), nil, false, ""); resp.status != http.StatusOK {
				t.Errorf("churn leave %d = %d (%s)", i, resp.status, resp.body)
				return
			}
		}
	}()

	var senders sync.WaitGroup
	for s := 0; s < 4; s++ {
		senders.Add(1)
		go func(s int) {
			defer senders.Done()
			rng := rand.New(rand.NewPCG(uint64(900+s), 0))
			body := freqBatchBody(t, 24, uint64(300+s))
			for i := 0; i < 25; i++ {
				x, y := rng.Float64()*12_000, rng.Float64()*12_000
				pathQuery := fmt.Sprintf("%s?x=%.0f&y=%.0f&r=500", PathFreq, x, y)
				if resp := h.send(t, h.gwTS.URL, http.MethodGet, pathQuery, nil, "", nil, time.Time{}, ""); resp.status != http.StatusOK {
					t.Errorf("sender %d iter %d: GET = %d (%s)", s, i, resp.status, resp.body)
					return
				}
				resp := h.send(t, h.gwTS.URL, http.MethodPost, PathFreqBatch, body, "", nil, time.Time{}, "")
				if resp.status != http.StatusOK {
					t.Errorf("sender %d iter %d: batch = %d", s, i, resp.status)
					return
				}
				var out FreqBatchResponse
				if err := json.Unmarshal(resp.body, &out); err != nil {
					t.Errorf("sender %d iter %d: %v", s, i, err)
					return
				}
				if len(out.Results) != 24 {
					t.Errorf("sender %d iter %d: %d results, want 24", s, i, len(out.Results))
					return
				}
				for j, res := range out.Results {
					if res.Error == "" && res.Freq == nil {
						t.Errorf("sender %d iter %d item %d: neither result nor error", s, i, j)
						return
					}
				}
			}
		}(s)
	}
	senders.Wait()
	churn.Wait()

	// Quiesce: whatever state the churn ended in, the fleet must still
	// answer byte-identically.
	h.gw.ProbeOnce(context.Background())
	h.assertIdentical(t, http.MethodPost, PathFreqBatch, freqBatchBody(t, 24, 78), false)
	h.assertIdentical(t, http.MethodGet, PathFreq+"?x=6000&y=6000&r=900", nil, false)
}
