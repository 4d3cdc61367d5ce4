package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poiagg/internal/cluster"
	"poiagg/internal/obs"
)

// Cluster metric names exported on the gateway's registry. Per-shard
// gauges are suffixed with the shard's index ("cluster.shard.0.inflight",
// ...); the gateway logs the index → URL mapping at startup and on
// every join. Indices are never reused — a rejoining peer gets a fresh
// one — so a departed index's gauges freeze at healthy=0 rather than
// silently renaming another shard's series.
const (
	// MetricClusterPeers is the current fleet size.
	MetricClusterPeers = "cluster.peers"
	// MetricClusterHealthy / Unhealthy split the fleet by probe state.
	MetricClusterHealthy   = "cluster.healthy"
	MetricClusterUnhealthy = "cluster.unhealthy"
	// MetricClusterEvictions counts shards removed from the ring.
	MetricClusterEvictions = "cluster.evictions"
	// MetricClusterRestores counts shards re-added after recovery.
	MetricClusterRestores = "cluster.restores"
	// MetricClusterProbesOK / Fail count individual health probes.
	MetricClusterProbesOK   = "cluster.probes.ok"
	MetricClusterProbesFail = "cluster.probes.fail"
	// MetricClusterFanout is the latency histogram of batch fan-outs
	// (split → concurrent shard calls → merge).
	MetricClusterFanout = "cluster.fanout"
	// MetricClusterReplicaHedges counts hedge launches: a second replica
	// asked because the first outlived the hedging delay.
	MetricClusterReplicaHedges = "cluster.replica.hedges"
	// MetricClusterReplicaFailovers counts replica launches triggered by
	// an earlier replica's error (as opposed to its slowness).
	MetricClusterReplicaFailovers = "cluster.replica.failovers"
	// MetricClusterReplicaSecondaryWins counts replicated GETs answered
	// by a non-primary replica.
	MetricClusterReplicaSecondaryWins = "cluster.replica.wins.secondary"
	// MetricClusterJoins / Leaves count admin membership changes.
	MetricClusterJoins  = "cluster.membership.joins"
	MetricClusterLeaves = "cluster.membership.leaves"
	// MetricClusterJoinErrors counts joins the city check refused.
	MetricClusterJoinErrors = "cluster.membership.join_errors"
)

// DefaultProbeInterval is the health-probe cadence unless
// WithProbeInterval overrides it.
const DefaultProbeInterval = 2 * time.Second

// DefaultProbeTimeout bounds one /readyz probe.
const DefaultProbeTimeout = time.Second

// DefaultHedgeDelay is how long a replicated GET waits on the primary
// replica before hedging to the next one. Well above a healthy
// in-datacenter RTT, so the common case stays one RPC.
const DefaultHedgeDelay = 50 * time.Millisecond

// clusterPeer is one gspd shard behind the gateway.
type clusterPeer struct {
	url    string
	index  int
	client *GSPClient
	hc     *http.Client

	// healthy gates ring membership: the transition edges (CAS) are
	// what add and remove the peer, so concurrent probes and fan-out
	// evictions cannot double-mutate the ring.
	healthy  atomic.Bool
	inflight atomic.Int64
	errs     atomic.Uint64

	// removed marks an admin-departed peer so an in-flight probe that
	// snapshotted the table before the removal cannot restore it onto
	// the ring afterwards.
	removed atomic.Bool
}

// peerTable is the mutable, lock-guarded membership shared by the
// prober, the fan-out paths, and the metrics exporters. Shard indices
// grow monotonically and are never reused.
type peerTable struct {
	mu    sync.RWMutex
	list  []*clusterPeer
	byURL map[string]*clusterPeer
	next  int
}

func newPeerTable() *peerTable {
	return &peerTable{byURL: make(map[string]*clusterPeer)}
}

// snapshot returns the current members; the slice is private to the
// caller but the peers are shared.
func (t *peerTable) snapshot() []*clusterPeer {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*clusterPeer, len(t.list))
	copy(out, t.list)
	return out
}

func (t *peerTable) get(url string) (*clusterPeer, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p, ok := t.byURL[url]
	return p, ok
}

func (t *peerTable) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.list)
}

// add assigns the next shard index and inserts the peer; it reports
// false (without assigning) on a duplicate URL.
func (t *peerTable) add(p *clusterPeer) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.byURL[p.url]; dup {
		return false
	}
	p.index = t.next
	t.next++
	t.list = append(t.list, p)
	t.byURL[p.url] = p
	return true
}

// remove deletes the peer by URL, returning it for bookkeeping.
func (t *peerTable) remove(url string) (*clusterPeer, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.byURL[url]
	if !ok {
		return nil, false
	}
	delete(t.byURL, url)
	for i, q := range t.list {
		if q == p {
			t.list = append(t.list[:i], t.list[i+1:]...)
			break
		}
	}
	return p, true
}

// ClusterGateway routes the GSP endpoint surface across a fleet of gspd
// shards: single queries go to the consistent-hash owner of the
// query's (city × grid cell) — optionally raced against R replicas,
// first answer wins — batch requests are split per shard, fanned out
// concurrently through the hardened wire client, and merged preserving
// input order with per-item errors. A fleet behind the gateway is
// bit-identical to one gspd over the same city — proven by the
// differential cluster e2e — because every shard holds the full city,
// the gateway runs the server's own validators, and it relays the
// shards' response bytes rather than decoding and re-encoding them.
// Sharding buys capacity: each shard's freq cache holds only its ~1/N
// slice of the cell keyspace.
//
// Shard death is handled twice over: a refused connection evicts the
// peer from the ring mid-request (single queries fail over to the next
// replica or the new owner; batch items report structured per-item
// errors), and the /readyz-driven health prober (StartProber/ProbeOnce)
// removes dead peers and re-adds recovered ones.
//
// Membership is dynamic: POST /v1/cluster/peers joins a shard (after a
// readiness probe and a check that it serves the fleet's city) and
// DELETE /v1/cluster/peers/{url} retires one, both without a restart.
//
// ClusterGateway is an http.Handler, and ListenAndServe runs it as a
// daemon.
type ClusterGateway struct {
	serverCore
	gatewaySettings
	maxRadius float64
	maxBatch  int

	ring *cluster.Ring
	// table is the live membership; memberMu serializes admin joins and
	// leaves (probes and fan-outs only read).
	table    *peerTable
	memberMu sync.Mutex

	fanout obs.Histogram
}

// gatewaySettings are the settings only the gateway reads.
type gatewaySettings struct {
	cellSize  float64
	cityLabel string
	vnodes    int

	probeInterval time.Duration
	probeTimeout  time.Duration

	replicas   int
	hedgeDelay time.Duration

	adminPrincipal string

	peerTransport http.RoundTripper
	peerOpts      []ClientOption
}

var _ http.Handler = (*ClusterGateway)(nil)

// WithVirtualNodes sets the consistent-hash ring's virtual nodes per
// shard (default cluster.DefaultVirtualNodes). Only the gateway reads
// it.
func WithVirtualNodes(n int) ServerOption {
	return func(st *serverSettings) {
		if n > 0 {
			st.gw.vnodes = n
		}
	}
}

// WithCellSize sets the routing grid's cell edge in meters (default
// cluster.DefaultCellSize). All gateways over one fleet must agree.
// Only the gateway reads it.
func WithCellSize(m float64) ServerOption {
	return func(st *serverSettings) {
		if m > 0 {
			st.gw.cellSize = m
		}
	}
}

// WithCityLabel sets the city component of the routing keyspace,
// isolating co-hosted cities on one fleet. Single-city deployments may
// leave it empty (the default). Only the gateway reads it.
func WithCityLabel(label string) ServerOption {
	return func(st *serverSettings) { st.gw.cityLabel = label }
}

// WithProbeInterval sets the health-probe cadence for StartProber
// (default DefaultProbeInterval). Only the gateway reads it.
func WithProbeInterval(d time.Duration) ServerOption {
	return func(st *serverSettings) {
		if d > 0 {
			st.gw.probeInterval = d
		}
	}
}

// WithProbeTimeout bounds one /readyz probe (default
// DefaultProbeTimeout). Only the gateway reads it.
func WithProbeTimeout(d time.Duration) ServerOption {
	return func(st *serverSettings) {
		if d > 0 {
			st.gw.probeTimeout = d
		}
	}
}

// WithReplicas makes every single-query GET race up to r distinct ring
// successors of the key, first answer wins (default 1 — primary only).
// Every shard holds the full city, so any replica's answer is the
// answer; replication buys tail latency and availability, not
// correctness. The hedging delay (WithHedgeDelay) keeps the common
// case at one RPC. Only the gateway reads it.
func WithReplicas(r int) ServerOption {
	return func(st *serverSettings) {
		if r > 0 {
			st.gw.replicas = r
		}
	}
}

// WithHedgeDelay sets how long a replicated GET waits on the current
// replica before launching the next one (default DefaultHedgeDelay).
// Errors fail over immediately regardless of the delay.
// Only the gateway reads it.
func WithHedgeDelay(d time.Duration) ServerOption {
	return func(st *serverSettings) {
		if d > 0 {
			st.gw.hedgeDelay = d
		}
	}
}

// WithClusterAdmin names the one principal allowed to mutate cluster
// membership when the gateway authenticates requests. Mirroring the
// budget admin surface's tenant rule: without auth the endpoints are
// open (the deployment has decided identity doesn't exist), with auth
// they are tenant-isolated — and if no admin principal is named, all
// mutations are refused (fail closed). Only the gateway reads it.
func WithClusterAdmin(principal string) ServerOption {
	return func(st *serverSettings) { st.gw.adminPrincipal = principal }
}

// WithPeerTransport sets the http.RoundTripper under every per-shard
// client and health probe (default http.DefaultTransport). The cluster
// e2e injects shard death here. Only the gateway reads it.
func WithPeerTransport(rt http.RoundTripper) ServerOption {
	return func(st *serverSettings) {
		if rt != nil {
			st.gw.peerTransport = rt
		}
	}
}

// WithPeerClientOptions appends options to every per-shard wire client
// — WithSigningKey to sign gateway→shard traffic against authenticated
// shards, WithRetries/WithBackoff to tune the fan-out retry policy.
// They are applied after the gateway's defaults (2 retries, the probe
// timeout as per-attempt bound), so they win.
// Only the gateway reads it.
func WithPeerClientOptions(opts ...ClientOption) ServerOption {
	return func(st *serverSettings) { st.gw.peerOpts = append(st.gw.peerOpts, opts...) }
}

// NewClusterGateway builds a gateway over an initial shard list (base
// URLs). Every peer starts on the ring; the prober corrects membership
// from /readyz, and the /v1/cluster/peers admin surface grows and
// shrinks the fleet at runtime. The peer list must be non-empty and
// duplicate-free. It reads the core options, WithMaxRadius, WithMaxBatch
// and the gateway's own options above.
func NewClusterGateway(peers []string, opts ...ServerOption) (*ClusterGateway, error) {
	st := newSettings(log.Default(), opts)
	g := &ClusterGateway{
		gatewaySettings: st.gw,
		maxRadius:       st.maxRadius,
		maxBatch:        st.maxBatch,
		table:           newPeerTable(),
	}
	if len(peers) == 0 {
		return nil, errors.New("wire: cluster gateway needs at least one shard")
	}
	// Past Drain, readiness also needs a healthy shard to route to.
	g.initCore(st, func() error {
		if g.healthyCount() == 0 {
			return errNoHealthyShards
		}
		return nil
	}, PathFreqBatch, PathQueryBatch)
	g.ring = cluster.New(g.vnodes)
	for i, raw := range peers {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			return nil, fmt.Errorf("wire: cluster gateway: empty peer at position %d", i)
		}
		p := g.newPeer(u)
		if !g.table.add(p) {
			return nil, fmt.Errorf("wire: cluster gateway: duplicate peer %s", u)
		}
		p.healthy.Store(true)
		g.ring.Add(u)
	}
	g.exportMetrics()

	for _, path := range []string{PathStats, PathPOIs, PathFreq, PathQuery} {
		g.mux.HandleFunc("GET "+path, g.handleGet)
	}
	g.mux.HandleFunc("POST "+PathFreqBatch, g.handleBatch)
	g.mux.HandleFunc("POST "+PathQueryBatch, g.handleBatch)
	g.mux.HandleFunc("GET "+PathClusterPeers, g.handlePeersList)
	g.mux.HandleFunc("POST "+PathClusterPeers, g.handlePeerJoin)
	g.mux.HandleFunc("DELETE "+PathClusterPeers+"/{url}", g.handlePeerLeave)
	for _, p := range g.table.snapshot() {
		g.log.Printf("cluster: shard %d = %s", p.index, p.url)
	}
	return g, nil
}

// newPeer builds the shard handle (client + probe transport) for a
// normalized base URL; the caller owns table and ring insertion.
func (g *ClusterGateway) newPeer(u string) *clusterPeer {
	hc := &http.Client{Transport: g.peerTransport}
	clientOpts := append([]ClientOption{
		WithRetries(2),
		WithRequestTimeout(g.probeTimeout * 4),
		WithClientMetrics(g.reg),
	}, g.peerOpts...)
	return &clusterPeer{
		url:    u,
		client: NewGSPClient(u, hc, clientOpts...),
		hc:     hc,
	}
}

// exportMetrics publishes the cluster gauges and counters.
func (g *ClusterGateway) exportMetrics() {
	g.reg.CounterFunc(MetricClusterPeers, func() uint64 { return uint64(g.table.len()) })
	g.reg.CounterFunc(MetricClusterHealthy, func() uint64 { return uint64(g.healthyCount()) })
	g.reg.CounterFunc(MetricClusterUnhealthy, func() uint64 {
		return uint64(g.table.len() - g.healthyCount())
	})
	g.reg.RegisterLatency(MetricClusterFanout, &g.fanout)
	// Pre-create the event counters so they appear in snapshots at zero.
	g.reg.Counter(MetricClusterEvictions)
	g.reg.Counter(MetricClusterRestores)
	g.reg.Counter(MetricClusterProbesOK)
	g.reg.Counter(MetricClusterProbesFail)
	g.reg.Counter(MetricClusterReplicaHedges)
	g.reg.Counter(MetricClusterReplicaFailovers)
	g.reg.Counter(MetricClusterReplicaSecondaryWins)
	g.reg.Counter(MetricClusterJoins)
	g.reg.Counter(MetricClusterLeaves)
	g.reg.Counter(MetricClusterJoinErrors)
	for _, p := range g.table.snapshot() {
		g.exportPeerMetrics(p)
	}
}

// exportPeerMetrics publishes one shard's per-index gauges; called at
// construction and again for every joining peer.
func (g *ClusterGateway) exportPeerMetrics(p *clusterPeer) {
	prefix := "cluster.shard." + strconv.Itoa(p.index)
	g.reg.CounterFunc(prefix+".inflight", func() uint64 { return uint64(p.inflight.Load()) })
	g.reg.CounterFunc(prefix+".errors", p.errs.Load)
	g.reg.CounterFunc(prefix+".healthy", func() uint64 {
		if p.healthy.Load() {
			return 1
		}
		return 0
	})
}

// errNoHealthyShards is reported when the ring is empty — every shard
// evicted and none recovered yet.
var errNoHealthyShards = errors.New("wire: no healthy shards")

func (g *ClusterGateway) healthyCount() int {
	n := 0
	for _, p := range g.table.snapshot() {
		if p.healthy.Load() {
			n++
		}
	}
	return n
}

// evict removes a peer from the ring. The CAS makes concurrent
// evictions (a probe and a fan-out hitting the same dead shard) mutate
// the ring exactly once.
func (g *ClusterGateway) evict(p *clusterPeer, reason string) {
	if p.healthy.CompareAndSwap(true, false) {
		g.ring.Remove(p.url)
		g.reg.Counter(MetricClusterEvictions).Inc()
		g.log.Printf("cluster: evicted shard %d (%s): %s", p.index, p.url, reason)
	}
}

// restore re-adds a recovered peer; its vnode positions depend only on
// its URL, so it reclaims exactly the cells it owned before eviction.
// An admin-removed peer is never restored: the removed flag is checked
// on both sides of the CAS so a probe racing the removal cannot leak
// the peer back onto the ring.
func (g *ClusterGateway) restore(p *clusterPeer) {
	if p.removed.Load() {
		return
	}
	if p.healthy.CompareAndSwap(false, true) {
		if p.removed.Load() {
			p.healthy.Store(false)
			return
		}
		g.ring.Add(p.url)
		g.reg.Counter(MetricClusterRestores).Inc()
		g.log.Printf("cluster: restored shard %d (%s)", p.index, p.url)
	}
}

// StartProber runs one synchronous reconciliation pass — a shard that
// is dead at gateway boot must not serve a probeInterval's worth of
// failover traffic before the first tick — then launches the periodic
// probe loop, which stops when ctx is canceled. Tests drive ProbeOnce
// directly instead.
func (g *ClusterGateway) StartProber(ctx context.Context) {
	g.ProbeOnce(ctx)
	go func() {
		t := time.NewTicker(g.probeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				g.ProbeOnce(ctx)
			}
		}
	}()
}

// ProbeOnce probes every member shard's /readyz concurrently and
// converges the ring: ready shards are (re-)added, unready ones
// evicted. One pass is a full state reconciliation, so a test (or an
// operator signal handler) can call it for deterministic convergence.
func (g *ClusterGateway) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range g.table.snapshot() {
		if p.removed.Load() {
			continue
		}
		wg.Add(1)
		go func(p *clusterPeer) {
			defer wg.Done()
			if g.probePeer(ctx, p) {
				g.reg.Counter(MetricClusterProbesOK).Inc()
				g.restore(p)
			} else {
				g.reg.Counter(MetricClusterProbesFail).Inc()
				g.evict(p, "readyz probe failed")
			}
		}(p)
	}
	wg.Wait()
}

// probePeer reports whether one shard answers /readyz with 200.
func (g *ClusterGateway) probePeer(ctx context.Context, p *clusterPeer) bool {
	ctx, cancel := context.WithTimeout(ctx, g.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+obs.PathReadyz, nil)
	if err != nil {
		return false
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return false
	}
	drainClose(resp.Body)
	return resp.StatusCode == http.StatusOK
}

// keyFor maps a query location to its ring key.
func (g *ClusterGateway) keyFor(x, y float64) uint64 {
	cx, cy := cluster.CellOf(x, y, g.cellSize)
	return cluster.Key(g.cityLabel, cx, cy)
}

// ownerPeer resolves the live peer owning key.
func (g *ClusterGateway) ownerPeer(key uint64) (*clusterPeer, bool) {
	u, ok := g.ring.Owner(key)
	if !ok {
		return nil, false
	}
	return g.table.get(u)
}

// replicaPeers resolves the key's replica set in rank order.
func (g *ClusterGateway) replicaPeers(key uint64) []*clusterPeer {
	urls := g.ring.Owners(key, max(1, g.replicas))
	out := make([]*clusterPeer, 0, len(urls))
	for _, u := range urls {
		if p, ok := g.table.get(u); ok {
			out = append(out, p)
		}
	}
	return out
}

// get sends one GET to the shard through its hardened client and
// returns the 2xx body, checked to be a single JSON value but not
// decoded further.
func (p *clusterPeer) get(ctx context.Context, path string, params url.Values) (json.RawMessage, error) {
	var body json.RawMessage
	err := p.client.core.do(ctx, http.MethodGet, path, params, nil, &body)
	return body, err
}

// shardCall is one request against one shard, returning the shard's
// 2xx body. Each replica gets its own invocation, so implementations
// must not write shared state — the winner's body is the only thing
// committed.
type shardCall func(ctx context.Context, p *clusterPeer) (json.RawMessage, error)

// callReplicated runs call against the key's replica set first-wins,
// failing over across rounds: when a whole replica set turns out
// unreachable (each member refused and was evicted), ownership has
// moved and the next round resolves the new set — so a single query
// survives shard death in the same request. The loop is bounded by the
// fleet size; each retried round has strictly fewer live peers.
func (g *ClusterGateway) callReplicated(ctx context.Context, key uint64, call shardCall) (json.RawMessage, error) {
	for attempt := 0; attempt <= g.table.len(); attempt++ {
		peers := g.replicaPeers(key)
		if len(peers) == 0 {
			if g.ring.Len() > 0 {
				// A membership change slipped between the ring resolve
				// and the table lookup; re-resolve against the new state.
				continue
			}
			return nil, errNoHealthyShards
		}
		v, err, retry := g.raceReplicas(ctx, peers, call)
		if err == nil {
			return v, nil
		}
		if retry {
			continue
		}
		return nil, err
	}
	return nil, errNoHealthyShards
}

// raceReplicas launches call against peers[0] and hedges down the rank
// order: the next replica starts when the previous one outlives the
// hedging delay (a hedge) or errors (a failover). The first success
// wins and cancels the rest. retry reports the everyone-unreachable
// case: every raced peer refused and was evicted, so the caller should
// re-resolve ownership and try again; any other error is returned in
// arrival order preferring non-transport errors, and names the shard
// that sent it.
func (g *ClusterGateway) raceReplicas(ctx context.Context, peers []*clusterPeer, call shardCall) (v json.RawMessage, err error, retry bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		p   *clusterPeer
		v   json.RawMessage
		err error
	}
	results := make(chan outcome, len(peers))
	launched := 0
	launch := func() {
		p := peers[launched]
		launched++
		p.inflight.Add(1)
		go func() {
			defer p.inflight.Add(-1)
			v, err := call(ctx, p)
			results <- outcome{p: p, v: v, err: err}
		}()
	}
	launch()

	var hedgeC <-chan time.Time
	var hedge *time.Timer
	if len(peers) > 1 && g.hedgeDelay > 0 {
		hedge = time.NewTimer(g.hedgeDelay)
		defer hedge.Stop()
		hedgeC = hedge.C
	}

	pending := 1
	var firstErr error
	for {
		select {
		case <-hedgeC:
			if launched < len(peers) {
				g.reg.Counter(MetricClusterReplicaHedges).Inc()
				launch()
				pending++
				hedge.Reset(g.hedgeDelay)
			} else {
				hedgeC = nil
			}
		case out := <-results:
			pending--
			if out.err == nil {
				if out.p != peers[0] {
					g.reg.Counter(MetricClusterReplicaSecondaryWins).Inc()
				}
				return out.v, nil, false
			}
			out.p.errs.Add(1)
			if errors.Is(out.err, ErrPeerUnreachable) {
				g.evict(out.p, "connection refused")
			} else if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", out.p.index, out.err)
			}
			if launched < len(peers) {
				g.reg.Counter(MetricClusterReplicaFailovers).Inc()
				launch()
				pending++
			} else if pending == 0 {
				if firstErr != nil {
					return nil, firstErr, false
				}
				return nil, ErrPeerUnreachable, true
			}
		}
	}
}

// writeUpstreamError maps a shard-side failure onto the gateway's own
// response. Validation never reaches a shard (the gateway mirrors the
// server's validators), so what lands here is availability: overload
// propagates as 503 with the shard's Retry-After, everything else is a
// 502 naming the gateway as the failing hop. The error's text can hold
// the shard's internal URL and the forwarded query, so it goes to the
// log, not to the client.
func (g *ClusterGateway) writeUpstreamError(w http.ResponseWriter, err error) {
	var over *OverloadedError
	switch {
	case errors.Is(err, errNoHealthyShards):
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(g.probeInterval.Seconds()))))
		writeError(w, http.StatusServiceUnavailable, "no healthy shards")
	case errors.As(err, &over):
		// Floor sub-second hints to 1s rather than dropping the header:
		// a missing Retry-After sends well-behaved clients into full
		// exponential backoff, the opposite of the shard's short hint.
		if over.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(max(1, int(over.RetryAfter.Seconds()))))
		}
		writeError(w, http.StatusServiceUnavailable, "shard overloaded: "+over.Message)
	default:
		g.log.Printf("cluster: upstream shard error: %v", err)
		writeError(w, http.StatusBadGateway, "upstream shard error")
	}
}

// handleGet relays the four single-query GETs. A located query is
// validated with the server's own validator and routed to the owner of
// its cell; the city-wide endpoints (stats, the POI dump) route at key
// 0, since every shard serves the same city, and so inherit the same
// failover and replication. The winning shard's body is already what
// one gspd sends, so it is written as it came.
func (g *ClusterGateway) handleGet(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	var key uint64
	var params url.Values
	if path == PathFreq || path == PathQuery {
		l, radius, ok := parseLocationQuery(w, r, g.maxRadius)
		if !ok {
			return
		}
		key, params = g.keyFor(l.X, l.Y), locationParams(l, radius)
	}
	body, err := g.callReplicated(r.Context(), key, func(ctx context.Context, p *clusterPeer) (json.RawMessage, error) {
		return p.get(ctx, path, params)
	})
	if err != nil {
		g.writeUpstreamError(w, err)
		return
	}
	writeRaw(w, http.StatusOK, append(body, '\n'))
}

// authorizeClusterAdmin applies the membership surface's tenant rule,
// mirroring the budget admin endpoints: with auth disabled the caller
// is trusted; with auth enabled only the configured admin principal may
// mutate membership, and an unset admin principal refuses everyone.
func (g *ClusterGateway) authorizeClusterAdmin(w http.ResponseWriter, r *http.Request) bool {
	if g.auth == nil {
		return true
	}
	verified, _ := VerifiedPrincipal(r.Context())
	if g.adminPrincipal == "" || verified != g.adminPrincipal {
		writeAuthForbidden(w, fmt.Sprintf("principal %q may not administer cluster membership", verified))
		return false
	}
	return true
}

// peersResponse snapshots the membership for the admin surface.
func (g *ClusterGateway) peersResponse() ClusterPeersResponse {
	peers := g.table.snapshot()
	resp := ClusterPeersResponse{Peers: make([]ClusterPeerInfo, 0, len(peers))}
	for _, p := range peers {
		resp.Peers = append(resp.Peers, ClusterPeerInfo{
			URL:     p.url,
			Index:   p.index,
			Healthy: p.healthy.Load(),
		})
	}
	return resp
}

// handlePeersList reports the current membership. Read-only, so any
// authenticated principal may ask (auth still runs in the middleware).
func (g *ClusterGateway) handlePeersList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.peersResponse())
}

// handlePeerJoin admits a new shard: probe its readiness, check that it
// serves the fleet's city, then atomically add it to the table,
// metrics, and ring. The member mutex serializes joins and leaves so
// two admins cannot interleave half-applied membership.
func (g *ClusterGateway) handlePeerJoin(w http.ResponseWriter, r *http.Request) {
	if !g.authorizeClusterAdmin(w, r) {
		return
	}
	var req ClusterJoinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, g.maxBody)).Decode(&req); err != nil {
		if isMaxBytes(err) {
			writeBodyTooLarge(w, g.maxBody)
			return
		}
		writeError(w, http.StatusBadRequest, "cluster join: bad request body: "+err.Error())
		return
	}
	u := strings.TrimRight(strings.TrimSpace(req.URL), "/")
	if u == "" {
		writeError(w, http.StatusBadRequest, "cluster join: url is required")
		return
	}
	g.memberMu.Lock()
	defer g.memberMu.Unlock()
	if _, dup := g.table.get(u); dup {
		writeError(w, http.StatusConflict, "cluster join: already a member: "+u)
		return
	}
	p := g.newPeer(u)
	if !g.probePeer(r.Context(), p) {
		writeError(w, http.StatusBadGateway, "cluster join: readiness probe failed: "+u)
		return
	}
	if err := g.checkCity(r.Context(), p); err != nil {
		g.reg.Counter(MetricClusterJoinErrors).Inc()
		status := http.StatusBadGateway
		if errors.Is(err, errCityMismatch) {
			// The joiner serves another city or dataset. Admitting it
			// would break byte-identity.
			status = http.StatusConflict
		}
		writeError(w, status, "cluster join: city check failed: "+err.Error())
		return
	}
	g.table.add(p)
	g.exportPeerMetrics(p)
	p.healthy.Store(true)
	g.ring.Add(u)
	g.reg.Counter(MetricClusterJoins).Inc()
	g.log.Printf("cluster: joined shard %d (%s)", p.index, p.url)
	writeJSON(w, http.StatusOK, g.peersResponse())
}

// handlePeerLeave retires a member shard. The removed flag is set
// before the ring removal so a racing probe cannot restore the peer,
// and the last shard is refused — an empty fleet serves nothing.
func (g *ClusterGateway) handlePeerLeave(w http.ResponseWriter, r *http.Request) {
	if !g.authorizeClusterAdmin(w, r) {
		return
	}
	u := strings.TrimRight(strings.TrimSpace(r.PathValue("url")), "/")
	g.memberMu.Lock()
	defer g.memberMu.Unlock()
	p, ok := g.table.get(u)
	if !ok {
		writeError(w, http.StatusNotFound, "cluster leave: not a member: "+u)
		return
	}
	if g.table.len() == 1 {
		writeError(w, http.StatusConflict, "cluster leave: refusing to remove the last shard")
		return
	}
	p.removed.Store(true)
	p.healthy.Store(false)
	g.ring.Remove(u)
	g.table.remove(u)
	g.reg.Counter(MetricClusterLeaves).Inc()
	g.log.Printf("cluster: left shard %d (%s)", p.index, p.url)
	writeJSON(w, http.StatusOK, g.peersResponse())
}

// errCityMismatch marks a joiner whose bytes differ from the fleet's.
var errCityMismatch = errors.New("the joiner serves another city")

// checkCity compares the joiner's city with a healthy member's, byte for
// byte, before the joiner takes ownership. The /v1/stats and /v1/pois
// bodies are the whole city; one /v1/freq at the center of the city's
// bounds puts the freq body encoder, whose bytes the gateway relays,
// under the same check. With no healthy member there is nothing to
// compare with, and the join proceeds. The returned error's text names
// shards by index only, so it can go to the client; fetch errors are
// logged in full.
func (g *ClusterGateway) checkCity(ctx context.Context, joiner *clusterPeer) error {
	var donor *clusterPeer
	for _, u := range g.ring.Peers() {
		if p, ok := g.table.get(u); ok && p.healthy.Load() {
			donor = p
			break
		}
	}
	if donor == nil {
		return nil
	}
	same := func(path string, params url.Values) (json.RawMessage, error) {
		want, err := donor.get(ctx, path, params)
		if err != nil {
			g.log.Printf("cluster: city check: shard %d: GET %s: %v", donor.index, path, err)
			return nil, fmt.Errorf("GET %s from shard %d failed", path, donor.index)
		}
		got, err := joiner.get(ctx, path, params)
		if err != nil {
			g.log.Printf("cluster: city check: joiner %s: GET %s: %v", joiner.url, path, err)
			return nil, fmt.Errorf("GET %s from the joiner failed", path)
		}
		if !bytes.Equal(want, got) {
			return nil, fmt.Errorf("%w: GET %s differs from shard %d's", errCityMismatch, path, donor.index)
		}
		return want, nil
	}
	body, err := same(PathStats, nil)
	if err != nil {
		return err
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		return fmt.Errorf("GET %s from shard %d: %w", PathStats, donor.index, err)
	}
	if _, err := same(PathPOIs, nil); err != nil {
		return err
	}
	_, err = same(PathFreq, locationParams(stats.Bounds.Center(), g.cellSize))
	return err
}

// shardBatch is one shard's slice of a batch fan-out: the items it
// owns plus their positions in the caller's order.
type shardBatch struct {
	p     *clusterPeer
	items []BatchItem
	idx   []int
}

// splitByOwner validates every item and groups the valid ones by the
// shard owning each item's cell, preserving first-seen shard order.
// Invalid or unroutable items get their error recorded through reject.
func (g *ClusterGateway) splitByOwner(items []BatchItem, reject func(i int, msg string)) []*shardBatch {
	var order []*shardBatch
	byPeer := make(map[*clusterPeer]*shardBatch)
	for i, it := range items {
		if err := validateBatchItem(it, g.maxRadius); err != nil {
			reject(i, err.Error())
			continue
		}
		p, ok := g.ownerPeer(g.keyFor(it.X, it.Y))
		if !ok {
			reject(i, "no healthy shards")
			continue
		}
		sb := byPeer[p]
		if sb == nil {
			sb = &shardBatch{p: p}
			byPeer[p] = sb
			order = append(order, sb)
		}
		sb.items = append(sb.items, it)
		sb.idx = append(sb.idx, i)
	}
	return order
}

// fanOut runs one shard call per group concurrently and records the
// fan-out latency. call must only write results at its own group's
// indices — disjoint by construction, so the merge is lock-free.
func (g *ClusterGateway) fanOut(groups []*shardBatch, call func(sb *shardBatch)) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, sb := range groups {
		wg.Add(1)
		go func(sb *shardBatch) {
			defer wg.Done()
			sb.p.inflight.Add(1)
			defer sb.p.inflight.Add(-1)
			call(sb)
		}(sb)
	}
	wg.Wait()
	g.fanout.Observe(time.Since(start))
}

// shardCallFailed books a failed shard call and returns the per-item
// message, which names the shard by index only: the error's text can
// hold the shard's internal URL, so it goes to the log. A refused
// connection also evicts the shard, so the next request routes around
// it.
func (g *ClusterGateway) shardCallFailed(sb *shardBatch, err error) string {
	sb.p.errs.Add(1)
	switch {
	case errors.Is(err, ErrPeerUnreachable):
		g.evict(sb.p, "connection refused during fanout")
		return fmt.Sprintf("shard %d unreachable", sb.p.index)
	case errors.Is(err, ErrOverloaded):
		return fmt.Sprintf("shard %d overloaded", sb.p.index)
	default:
		g.log.Printf("cluster: shard %d failed: %v", sb.p.index, err)
		return fmt.Sprintf("shard %d failed", sb.p.index)
	}
}

// handleBatch serves both batch routes. Each shard answers its slice of
// the items as {"results":[...]} in the order sent, and each result is
// placed, as the shard's bytes, at its item's original index. The
// gateway's own item errors encode as {"error":...}, which both result
// types produce for an error.
func (g *ClusterGateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	items, ok := decodeBatchRequest(w, r, g.maxBody, g.maxBatch)
	if !ok {
		return
	}
	release, ok := g.admitBatch(w, r, len(items))
	if !ok {
		return
	}
	defer release()
	results := make([]json.RawMessage, len(items))
	groups := g.splitByOwner(items, func(i int, msg string) { results[i] = errorResult(msg) })
	g.fanOut(groups, func(sb *shardBatch) {
		res, err := postBatch[json.RawMessage](r.Context(), sb.p.client, r.URL.Path, sb.items)
		if err != nil {
			failed := errorResult(g.shardCallFailed(sb, err))
			for _, i := range sb.idx {
				results[i] = failed
			}
			return
		}
		for j, seg := range res {
			results[sb.idx[j]] = seg
		}
	})
	n := len(`{"results":[]}`) + len(results)
	for _, seg := range results {
		n += len(seg)
	}
	b := append(make([]byte, 0, n), `{"results":[`...)
	for i, seg := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, seg...)
	}
	writeRaw(w, http.StatusOK, append(b, "]}\n"...))
}

// errorResult is the batch result {"error":msg}.
func errorResult(msg string) json.RawMessage {
	// A struct of one string always marshals.
	b, _ := json.Marshal(ErrorResponse{Error: msg})
	return b
}
