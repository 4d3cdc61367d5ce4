package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// serving is a workload that drives daemons over HTTP. Why each exists is
// recorded in BENCHMARK.json and README.md.
type serving struct {
	name string
	// rate is the fixed-rate phase's arrival rate in ops/s, part of the
	// benchmark's definition: about half the capacity_ops measured at the
	// seed commit, except gsp-hot, whose p50 split into two modes at half
	// capacity (README.md).
	rate float64
	city string
	// clients is how many principals sign the generator's requests.
	clients int
	start   func(e *env, w *serving, dir string, clients []principal, trace bool) (*stack, error)
	traffic func(t trafficBase) traffic
}

var servingWorkloads = []*serving{
	{name: "gsp-hot", rate: 3000, city: "beijing", clients: 16,
		start: singleGSPD, traffic: func(t trafficBase) traffic { return newHotTraffic(t, 0) }},
	{name: "gsp-cold", rate: 670, city: "nyc", clients: 16,
		start: singleGSPD, traffic: func(t trafficBase) traffic { return &coldTraffic{t} }},
	{name: "gateway", rate: 1000, city: "beijing", clients: 16,
		start: gatewayStack, traffic: func(t trafficBase) traffic { return newHotTraffic(t, 4) }},
	{name: "lbs-write", rate: 1800, city: "beijing", clients: 1024,
		start: lbsStack, traffic: func(t trafficBase) traffic { return newLBSTraffic(t) }},
}

// stack is the set of daemons one workload runs against.
type stack struct {
	daemons []*daemon
	// front is the daemon the generator sends to.
	front *daemon
}

// stop stops every daemon, front first.
func (s *stack) stop() {
	for i := len(s.daemons) - 1; i >= 0; i-- {
		s.daemons[i].stop()
	}
}

// Daemon flags shared by every stack: signed requests, admission control
// at the production limit, and a request log on stderr. Renaming any flag
// the benchmark passes is a benchmark change.
func commonFlags(keyFile string, trace bool) []string {
	args := []string{"-admit-limit", "256", "-auth-keys", "@" + keyFile}
	if trace {
		args = append(args, "-pprof")
	}
	return args
}

func startGSPD(e *env, city, dir, keyFile, tag string, trace bool) (*daemon, error) {
	args := append([]string{"-city", city, "-seed", strconv.Itoa(citySeed)}, commonFlags(keyFile, trace)...)
	return startDaemon(e.bin("gspd"), filepath.Join(dir, tag+".log"), args...)
}

// singleGSPD is one gspd serving the workload's city.
func singleGSPD(e *env, w *serving, dir string, clients []principal, trace bool) (*stack, error) {
	keys := filepath.Join(dir, "keys-clients.txt")
	if err := writeKeyFile(keys, clients); err != nil {
		return nil, err
	}
	d, err := startGSPD(e, w.city, dir, keys, "gspd", trace)
	if err != nil {
		return nil, err
	}
	st := &stack{daemons: []*daemon{d}, front: d}
	if err := d.waitReady(e.ops, 30*time.Second); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// gatewayStack is gspgw in front of two beijing gspd shards, with auth on
// both hops: clients sign to the gateway, the gateway re-signs to shards.
func gatewayStack(e *env, w *serving, dir string, clients []principal, trace bool) (*stack, error) {
	gwKey := makePrincipals(e.seed, len(clients)+1)[len(clients)]
	gwKey.name = "gateway"
	clientKeys := filepath.Join(dir, "keys-clients.txt")
	shardKeys := filepath.Join(dir, "keys-shards.txt")
	if err := writeKeyFile(clientKeys, clients); err != nil {
		return nil, err
	}
	if err := writeKeyFile(shardKeys, []principal{gwKey}); err != nil {
		return nil, err
	}
	st := &stack{}
	var peers []string
	for i := range 2 {
		d, err := startGSPD(e, w.city, dir, shardKeys, fmt.Sprintf("gspd-%d", i), trace)
		if err != nil {
			st.stop()
			return nil, err
		}
		st.daemons = append(st.daemons, d)
		peers = append(peers, d.url)
	}
	for _, d := range st.daemons {
		if err := d.waitReady(e.ops, 30*time.Second); err != nil {
			st.stop()
			return nil, err
		}
	}
	args := append([]string{"-peers", strings.Join(peers, ","), "-peer-auth-key", gwKey.spec()},
		commonFlags(clientKeys, trace)...)
	gw, err := startDaemon(e.bin("gspgw"), filepath.Join(dir, "gspgw.log"), args...)
	if err != nil {
		st.stop()
		return nil, err
	}
	st.daemons = append(st.daemons, gw)
	st.front = gw
	if err := gw.waitReady(e.ops, 30*time.Second); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// lbsStack is lbsd auditing every release, enforcing budgets with an
// in-memory ledger under a policy no run can exhaust, and streaming
// windowed DP releases every second with pinned noise.
func lbsStack(e *env, w *serving, dir string, clients []principal, trace bool) (*stack, error) {
	keys := filepath.Join(dir, "keys-clients.txt")
	if err := writeKeyFile(keys, clients); err != nil {
		return nil, err
	}
	args := append([]string{"-city", w.city, "-seed", strconv.Itoa(citySeed),
		"-budget", "-budget-eps", "1e9", "-budget-delta", "0.999", "-budget-window-eps", "1e9",
		"-stream", "-stream-tick", "1s", "-stream-seed", "1", "-stream-history", strconv.Itoa(streamHistory)},
		commonFlags(keys, trace)...)
	d, err := startDaemon(e.bin("lbsd"), filepath.Join(dir, "lbsd.log"), args...)
	if err != nil {
		return nil, err
	}
	st := &stack{daemons: []*daemon{d}, front: d}
	if err := d.waitReady(e.ops, 30*time.Second); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// phase identifies a stream of operations. Every operation's inputs and
// nonce derive from (seed, phase, index), so two runs at one seed send the
// same requests.
type phase uint64

const (
	phaseWarm phase = iota + 1
	phaseFixed
	phaseCapacity
	phaseTraced
	phaseChecks
)

// opID names one operation.
type opID struct {
	phase phase
	i     int
}

func (id opID) key() uint64 { return uint64(id.phase)<<40 | uint64(id.i) }

// Random streams derived from the seed.
const (
	streamKeys uint64 = iota + 1
	streamNonce
	streamOps
	streamHotKeys
	streamReleases
)

// rnd is a splitmix64 generator.
type rnd struct{ s uint64 }

// newRand returns the generator for element i of a stream.
func newRand(seed, stream, i uint64) *rnd {
	return &rnd{s: mix64(seed ^ mix64(stream^mix64(i)))}
}

func (r *rnd) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rnd) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rnd) intn(n int) int { return int(r.next() % uint64(n)) }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// radii are the paper's query ranges in meters.
var radii = [...]float64{500, 1000, 2000, 4000}

// traffic generates one workload's operations.
type traffic interface {
	// op performs one operation.
	op(ctx context.Context, id opID) (opKind, int, error)
	// warmOps is the number of operations of the set-up warm pass.
	warmOps() int
	// items is the number of (x, y, r) lookups an operation of kind k asks
	// the GSP for.
	items(k opKind) int
}

// trafficBase is what every traffic needs.
type trafficBase struct {
	c       *caller
	seed    uint64
	clients []principal
	oracle  *cityOracle
	chk     *checker
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func freqQuery(it item) string {
	return "r=" + fmtFloat(it.R) + "&x=" + fmtFloat(it.X) + "&y=" + fmtFloat(it.Y)
}

// getFreq sends GET /v1/freq, keeping the body for the oracle if sampled.
func (t trafficBase) getFreq(ctx context.Context, id opID, it item, sampled bool) (opKind, int, error) {
	p := t.clients[id.i%len(t.clients)]
	status, body, err := t.c.call(ctx, http.MethodGet, "/v1/freq", freqQuery(it), nil, p, id, sampled)
	if err == nil && sampled {
		t.chk.keep(answer{items: []item{it}, body: body})
	}
	return opFreq, status, err
}

// postBatch sends POST /v1/freq/batch, keeping the body if sampled.
func (t trafficBase) postBatch(ctx context.Context, id opID, items []item, sampled bool) (opKind, int, error) {
	body, err := json.Marshal(struct {
		Items []item `json:"items"`
	}{items})
	if err != nil {
		return opBatch, 0, err
	}
	p := t.clients[id.i%len(t.clients)]
	status, resp, err := t.c.call(ctx, http.MethodPost, "/v1/freq/batch", "", body, p, id, sampled)
	if err == nil && sampled {
		t.chk.keep(answer{items: items, batch: true, body: resp})
	}
	return opBatch, status, err
}

// hotKeyCount is the hot key set's size: it fits gspd's 4,096-entry
// encoded-response cache, so per-request overhead, not compute, sets the
// numbers of the workloads that use it.
const hotKeyCount = 1024

// hotTraffic is the cached query path: zipf(1.1) over POI-anchored keys,
// optionally with every batchEvery-th operation a 16-item batch.
type hotTraffic struct {
	trafficBase
	keys       []item
	cdf        []float64
	batchEvery int
}

// hotBatchItems is the size of the gateway workload's batches.
const hotBatchItems = 16

func newHotTraffic(t trafficBase, batchEvery int) *hotTraffic {
	h := &hotTraffic{trafficBase: t, batchEvery: batchEvery}
	r := newRand(t.seed, streamHotKeys, 0)
	perm := make([]int, len(t.oracle.xs))
	for i := range perm {
		perm[i] = i
	}
	for i := range hotKeyCount {
		j := i + r.intn(len(perm)-i)
		perm[i], perm[j] = perm[j], perm[i]
		p := perm[i]
		h.keys = append(h.keys, item{X: t.oracle.xs[p], Y: t.oracle.ys[p], R: radii[r.intn(len(radii))]})
	}
	sum := 0.0
	for k := range hotKeyCount {
		sum += math.Pow(float64(k+1), -1.1)
		h.cdf = append(h.cdf, sum)
	}
	for k := range h.cdf {
		h.cdf[k] /= sum
	}
	return h
}

func (h *hotTraffic) pick(r *rnd) item {
	return h.keys[min(sort.SearchFloat64s(h.cdf, r.float()), hotKeyCount-1)]
}

func (h *hotTraffic) op(ctx context.Context, id opID) (opKind, int, error) {
	if id.phase == phaseWarm {
		return h.getFreq(ctx, id, h.keys[id.i], false)
	}
	r := newRand(h.seed, streamOps, id.key())
	sampled := r.intn(checkEvery) == 0
	if h.batchEvery > 0 && id.i%h.batchEvery == h.batchEvery-1 {
		items := make([]item, hotBatchItems)
		for j := range items {
			items[j] = h.pick(r)
		}
		return h.postBatch(ctx, id, items, sampled)
	}
	return h.getFreq(ctx, id, h.pick(r), sampled)
}

// warmOps fetches every hot key once, warming the caches.
func (h *hotTraffic) warmOps() int { return hotKeyCount }

func (h *hotTraffic) items(k opKind) int {
	if k == opBatch {
		return hotBatchItems
	}
	return 1
}

// coldBatchItems is the size of the gsp-cold batches.
const coldBatchItems = 32

// coldTraffic is the full-size miss path: batches of coordinates drawn
// uniformly over the city, which never repeat.
type coldTraffic struct{ trafficBase }

func (c *coldTraffic) op(ctx context.Context, id opID) (opKind, int, error) {
	r := newRand(c.seed, streamOps, id.key())
	sampled := r.intn(checkEvery) == 0
	o := c.oracle
	items := make([]item, coldBatchItems)
	for j := range items {
		items[j] = item{X: o.minX + r.float()*(o.maxX-o.minX), Y: o.minY + r.float()*(o.maxY-o.minY),
			R: radii[(id.i*coldBatchItems+j)%len(radii)]}
	}
	return c.postBatch(ctx, id, items, sampled && id.phase != phaseWarm)
}

// warmOps only opens connections and faults in code: a cold workload has
// no cache to warm.
func (c *coldTraffic) warmOps() int { return 64 }

func (c *coldTraffic) items(opKind) int { return coldBatchItems }

// lbsTraffic is the write side: one audited release for every four NDJSON
// ingests of 16 check-ins, signed by 1,024 principals in turn.
type lbsTraffic struct {
	trafficBase
	pool []release
}

type release struct {
	UserID string  `json:"userId"`
	Freq   []int   `json:"freq"`
	R      float64 `json:"r"`
}

// Shape of the lbs-write traffic.
const (
	lbsReleaseEvery  = 5
	lbsEventsPerPost = 16
	lbsUsersPer      = 2 // check-in users per principal: 2,048 in all
	lbsPayloads      = 256
)

// newLBSTraffic draws the release payloads: POI-anchored vectors whose
// radii cycle through the paper's, and releases take the payloads in turn,
// so every seed audits the same mix of radii. An audit's cost depends on
// its radius and on where the payload lies.
func newLBSTraffic(t trafficBase) *lbsTraffic {
	l := &lbsTraffic{trafficBase: t}
	r := newRand(t.seed, streamReleases, 0)
	for k := range lbsPayloads {
		p := r.intn(len(t.oracle.xs))
		it := item{X: t.oracle.xs[p], Y: t.oracle.ys[p], R: radii[k%len(radii)]}
		l.pool = append(l.pool, release{Freq: t.oracle.freq(it), R: it.R})
	}
	return l
}

func (l *lbsTraffic) op(ctx context.Context, id opID) (opKind, int, error) {
	if id.i%lbsReleaseEvery == 0 && id.phase != phaseWarm {
		return l.release(ctx, id)
	}
	return l.ingest(ctx, id, newRand(l.seed, streamOps, id.key()))
}

func (l *lbsTraffic) release(ctx context.Context, id opID) (opKind, int, error) {
	n := id.i / lbsReleaseEvery
	p := l.clients[n%len(l.clients)]
	rel := l.pool[n%len(l.pool)]
	rel.UserID = fmt.Sprintf("%s-u%d", p.name, n%lbsUsersPer)
	body, err := json.Marshal(rel)
	if err != nil {
		return opRelease, 0, err
	}
	status, resp, err := l.c.call(ctx, http.MethodPost, "/v1/release", "", body, p, id, true)
	if err != nil {
		return opRelease, status, err
	}
	var ack struct {
		Accepted bool `json:"accepted"`
		Audited  bool `json:"audited"`
	}
	if err := json.Unmarshal(resp, &ack); err != nil || !ack.Accepted || !ack.Audited {
		return opRelease, status, l.chk.fail("release not accepted and audited: %s", resp)
	}
	l.chk.pass()
	return opRelease, status, nil
}

func (l *lbsTraffic) ingest(ctx context.Context, id opID, r *rnd) (opKind, int, error) {
	p := l.clients[id.i%len(l.clients)]
	o := l.oracle
	now := time.Now().UTC()
	var b strings.Builder
	for j := range lbsEventsPerPost {
		ev, err := json.Marshal(struct {
			UserID string    `json:"userId"`
			X      float64   `json:"x"`
			Y      float64   `json:"y"`
			TS     time.Time `json:"ts"`
			ID     string    `json:"id"`
		}{fmt.Sprintf("%s-u%d", p.name, j%lbsUsersPer),
			o.minX + r.float()*(o.maxX-o.minX), o.minY + r.float()*(o.maxY-o.minY),
			now, fmt.Sprintf("%x-%d", id.key(), j)})
		if err != nil {
			return opIngest, 0, err
		}
		b.Write(ev)
		b.WriteByte('\n')
	}
	status, resp, err := l.c.call(ctx, http.MethodPost, "/v1/ingest", "", []byte(b.String()), p, id, true)
	if err != nil {
		return opIngest, status, err
	}
	var ack struct {
		Accepted int `json:"accepted"`
		Deduped  int `json:"deduped"`
	}
	if err := json.Unmarshal(resp, &ack); err != nil || ack.Accepted+ack.Deduped != lbsEventsPerPost {
		return opIngest, status, l.chk.fail("ingest of %d events answered %s", lbsEventsPerPost, resp)
	}
	l.chk.pass()
	return opIngest, status, nil
}

// warmOps opens the connections and faults in the ingest path. It sends
// no release: an audit's cost depends on where the payload lies, so the
// few a warm pass could send would make set-up time measure the seed's
// payloads (with 40 releases, two seeds' setup_s lay 30% apart). Its 300
// ingests take about 50 ms, three times as long as lbsd takes to become
// ready; with 100, setup_s spread 8% over twelve seeds against 5%.
func (l *lbsTraffic) warmOps() int { return 300 }

func (l *lbsTraffic) items(opKind) int { return 0 }

// streamHistory is how many windowed releases lbsd keeps for
// GET /v1/stream/releases.
const streamHistory = 64

// streamRelease is the part of a windowed release the check reads.
type streamRelease struct {
	Tick uint64 `json:"tick"`
	Freq []int  `json:"freq"`
}

// checkStream verifies that the releaser kept up over ticks [t0, t1),
// counted before the measured phases and after the last one. The checker
// records the outcome.
func (l *lbsTraffic) checkStream(ctx context.Context, t0, t1 uint64) {
	_, body, err := l.c.call(ctx, http.MethodGet, "/v1/stream/releases", "", nil, l.clients[0],
		opID{phase: phaseChecks}, true)
	if err != nil {
		l.chk.fail("stream releases: %v", err)
		return
	}
	var rs struct {
		Releases []streamRelease `json:"releases"`
	}
	if err := json.Unmarshal(body, &rs); err != nil {
		l.chk.fail("decode stream releases: %v", err)
		return
	}
	if err := streamKeptUp(rs.Releases, t0, t1, l.oracle.m); err != nil {
		l.chk.fail("%v", err)
		return
	}
	l.chk.pass()
}

// streamKeptUp checks that the releases lbsd still holds carry a frequency
// vector of dimension m for all but one of the ticks in [t0, t1). lbsd
// keeps the last streamHistory releases, and one more tick may have fired
// between counting t1 and reading them, so at most streamHistory − 1 of
// the ticks can still be read.
func streamKeptUp(rs []streamRelease, t0, t1 uint64, m int) error {
	if t1 <= t0 {
		return nil
	}
	full := 0
	for _, r := range rs {
		if r.Tick >= t0 && r.Tick < t1 && len(r.Freq) == m {
			full++
		}
	}
	want := min(t1-t0, streamHistory-1) - 1
	if uint64(full) < want {
		return fmt.Errorf("stream published %d full releases over ticks [%d, %d), want %d", full, t0, t1, want)
	}
	return nil
}
