// Command loadgen drives a GSP/LBS wire stack with synthetic load and
// reports throughput, latency quantiles, and shed/denial counts as JSON.
// It is the measurement half of the admission-control story: run it once
// against an admission-limited server and once against an unlimited one
// to see load shedding keep tail latency bounded while the unprotected
// server collapses.
//
// Two driving modes:
//
//   - closed loop (default): -conc workers each issue the next request
//     as soon as the previous completes — concurrency is fixed, arrival
//     rate adapts to the server.
//   - open loop (-rate > 0): requests start on a fixed schedule
//     regardless of completions, the arrival pattern that actually
//     overloads real services.
//
// Targets (-targets, comma-separated): freq (GET /v1/freq), batch
// (POST /v1/query/batch, -batch items per request), release
// (POST /v1/release), ingest (POST /v1/ingest, -stream-batch NDJSON
// events per request from a -stream-users synthetic population).
//
// The ingest target pairs with -profile stream: every -stream-burst the
// event generator rotates to a fresh user cohort, flooding the window
// store with users it has never seen — the eviction churn the bounded
// sliding window exists to absorb. With -inprocess the LBS server runs
// the full stream subsystem (window store sized to one cohort, windowed
// DP releaser ticking every -stream-tick) and the report gains a
// "stream" block with the server-side window counters.
//
// -profile membership-churn (requires -inprocess -cluster >= 2 and the
// freq target) rehearses a fleet transition live: each shard gets its
// own GSP service (so caches are per-shard, as in a real fleet), the
// run retires one shard through the gateway's membership admin API at
// one third of the duration and admits a brand-new cold shard, which
// the gateway first checks serves the same city, at two thirds. Traffic
// queries loadgen's ordinary uniform locations, and the report gains a
// "churn" block with per-phase latency quantiles and cache hit rates:
// the dip and recovery across the transitions is the measurement. The
// shards start cold, so the "steady" phase includes the fleet's cache
// fill, and its hit rate is not a steady state. The "rejoined" phase
// starts once the joiner is admitted, so the join's own city-check
// requests count toward "departed".
//
// Usage:
//
//	loadgen -inprocess -conc 32 -duration 5s -admit-limit 8
//	loadgen -gsp http://localhost:8080 -targets freq,batch -rate 200 -duration 30s
//	loadgen -lbs http://localhost:8081 -targets release -conc 16 -out run.json
//	loadgen -inprocess -targets ingest -profile stream -rate 500 -duration 10s
//	loadgen -inprocess -cluster 3 -targets freq -profile membership-churn -duration 6s
//
// With -inprocess the generator spins up in-memory GSP and LBS servers
// (small synthetic city, region-audit enabled) over loopback HTTP, so a
// single command measures the whole stack with no daemons to start —
// this is what `make loadtest` runs. Adding -cluster N puts N GSP
// shards behind an in-memory gspgw gateway and drives the gateway
// instead, measuring the fan-out/merge overhead and throughput scaling
// of the sharded deployment (`make loadtest-cluster` sweeps shard
// counts).
//
// With -auth-key "principal=hexkey" every request is HMAC-signed; against
// daemons started with -auth-keys this is required, and with -inprocess
// the in-memory servers are provisioned with the same key so the run
// measures the stack with signature verification on the hot path.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poiagg/internal/citygen"
	"poiagg/internal/defense"
	"poiagg/internal/geo"
	"poiagg/internal/gsp"
	"poiagg/internal/index"
	"poiagg/internal/obs"
	"poiagg/internal/poi"
	"poiagg/internal/stream"
	"poiagg/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	name      string
	inprocess bool
	shards    int
	gspURL    string
	lbsURL    string
	targets   []string
	conc      int
	rate      float64
	duration  time.Duration
	timeout   time.Duration
	batchN    int
	radius    float64
	city      string
	seed      uint64

	profile     string
	zipfS       float64
	dupEpoch    time.Duration
	computeCost time.Duration

	streamUsers int
	streamBatch int
	streamBurst time.Duration
	streamTick  time.Duration

	admitLimit   int
	admitQueue   int
	admitTimeout time.Duration
	auditCost    time.Duration
	shedPause    time.Duration

	authKey string

	out       string
	assertRun bool
	quiet     bool
}

// Report is the JSON document loadgen emits.
type Report struct {
	Name            string                  `json:"name"`
	Config          ReportConfig            `json:"config"`
	DurationSeconds float64                 `json:"durationSeconds"`
	Total           uint64                  `json:"total"`
	OK              uint64                  `json:"ok"`
	Shed503         uint64                  `json:"shed503"`
	Denied429       uint64                  `json:"denied429"`
	BadRequest      uint64                  `json:"badRequest"`
	TransportErrors uint64                  `json:"transportErrors"`
	ThroughputRPS   float64                 `json:"throughputRps"`
	Latency         obs.LatencySnapshot     `json:"latency"`
	OKLatency       obs.LatencySnapshot     `json:"okLatency"`
	PerTarget       map[string]TargetReport `json:"perTarget"`
	// GSP is the in-process GSP service's server-side view of the run
	// (absent for remote targets, where the server is a separate process).
	GSP *GSPStats `json:"gsp,omitempty"`
	// Stream is the in-process window store's server-side view of an
	// ingest run (absent for remote targets and runs without ingest).
	Stream *StreamStats `json:"stream,omitempty"`
	// Churn is the membership-churn profile's per-phase breakdown: the
	// hit-rate dip and tail-latency cost of a shard leaving and a cold
	// one joining mid-run.
	Churn *ChurnStats `json:"churn,omitempty"`
}

// ChurnStats is the membership-churn profile's report block.
type ChurnStats struct {
	// Victim is the shard retired at one third of the run.
	Victim string `json:"victim"`
	// Joiner is the cold shard admitted at two thirds.
	Joiner string  `json:"joiner"`
	Joins  uint64  `json:"joins"`
	Leaves uint64  `json:"leaves"`
	JoinMs float64 `json:"joinMs"` // admit latency, city check included
	// Phases reports the freq target per transition window: steady
	// (full fleet, cold caches filling), departed (victim gone, up to
	// the joiner's admission), rejoined (cold shard in).
	Phases []ChurnPhase `json:"phases"`
}

// ChurnPhase is one transition window's slice of the churn run.
type ChurnPhase struct {
	Name            string              `json:"name"`
	Total           uint64              `json:"total"`
	OK              uint64              `json:"ok"`
	TransportErrors uint64              `json:"transportErrors"`
	Latency         obs.LatencySnapshot `json:"latency"`
	// HitRate is the fleet-wide freq-cache hit fraction during this
	// phase (0 when the phase saw no cache traffic). The
	// departed→rejoined dip is the cost of rebalancing onto a cold
	// shard.
	HitRate float64 `json:"hitRate"`
}

// StreamStats reports what the ingest load did to the in-process
// streaming subsystem: window occupancy against its hard cap, eviction
// churn, and how many windowed DP releases the ticking releaser
// published during the run.
type StreamStats struct {
	EventsAccepted uint64 `json:"eventsAccepted"`
	EventsRejected uint64 `json:"eventsRejected"`
	// EventsDeduped counts at-least-once replays the window store
	// applied once (client-stamped event ids).
	EventsDeduped uint64 `json:"eventsDeduped"`
	EventsDropped uint64 `json:"eventsDropped"`
	UsersEvicted  uint64 `json:"usersEvicted"`
	ActiveUsers   int    `json:"activeUsers"`
	WindowEvents  int    `json:"windowEvents"`
	// WindowEventCap is the memory bound the store must never exceed:
	// max users × max events per user.
	WindowEventCap int    `json:"windowEventCap"`
	Releases       uint64 `json:"releases"`
}

// GSPStats reports what the client-side throughput cost the server in
// index computations — the number dup-hot runs exist to compare.
type GSPStats struct {
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	SFLeader    uint64 `json:"sfLeader"`
	SFJoined    uint64 `json:"sfJoined"`
	SFShared    uint64 `json:"sfShared"`
	// Computes counts CountTypes executions: sfLeader + (sfJoined −
	// sfShared).
	Computes uint64 `json:"computes"`
}

// ReportConfig echoes the knobs that shaped the run, so a report file is
// self-describing.
type ReportConfig struct {
	Mode         string  `json:"mode"` // "inprocess" or "remote"
	Targets      string  `json:"targets"`
	Concurrency  int     `json:"concurrency"`
	RateRPS      float64 `json:"rateRps,omitempty"`
	AdmitLimit   int     `json:"admitLimit,omitempty"`
	AdmitQueue   int     `json:"admitQueue,omitempty"`
	AdmitTimeout string  `json:"admitTimeout,omitempty"`
	BatchItems   int     `json:"batchItems"`
	// ClusterShards is the in-process fleet size behind the gateway
	// (0 = single node, no gateway).
	ClusterShards int     `json:"clusterShards,omitempty"`
	Profile       string  `json:"profile,omitempty"`
	ZipfS         float64 `json:"zipfS,omitempty"`
	DupEpoch      string  `json:"dupEpoch,omitempty"`
	StreamUsers   int     `json:"streamUsers,omitempty"`
	StreamBatch   int     `json:"streamBatch,omitempty"`
	StreamBurst   string  `json:"streamBurst,omitempty"`
}

// TargetReport is one endpoint's slice of the run.
type TargetReport struct {
	Total     uint64              `json:"total"`
	OK        uint64              `json:"ok"`
	Shed503   uint64              `json:"shed503"`
	Denied429 uint64              `json:"denied429"`
	Latency   obs.LatencySnapshot `json:"latency"`
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.name, "name", "loadgen", "run label embedded in the report")
	fs.BoolVar(&cfg.inprocess, "inprocess", false, "spin up in-memory GSP+LBS servers instead of dialing daemons")
	fs.IntVar(&cfg.shards, "cluster", 0, "with -inprocess: put N GSP shards behind an in-memory gspgw gateway and drive that (0 = single node)")
	fs.StringVar(&cfg.gspURL, "gsp", "", "GSP base URL (required for freq/batch targets unless -inprocess)")
	fs.StringVar(&cfg.lbsURL, "lbs", "", "LBS base URL (required for the release target unless -inprocess)")
	targets := fs.String("targets", "freq,batch,release", "comma-separated endpoints to drive: freq, batch, release, ingest")
	fs.IntVar(&cfg.conc, "conc", 8, "closed-loop worker count (also bounds open-loop dispatch)")
	fs.Float64Var(&cfg.rate, "rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "how long to drive load")
	fs.DurationVar(&cfg.timeout, "timeout", 2*time.Second, "per-request deadline")
	fs.IntVar(&cfg.batchN, "batch", 16, "items per batch request")
	fs.Float64Var(&cfg.radius, "radius", 900, "query radius in meters")
	fs.StringVar(&cfg.city, "city", "beijing", "city preset (must match the daemons': beijing or nyc)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "city generation seed (must match the daemons')")
	fs.StringVar(&cfg.profile, "profile", "uniform", "load profile: uniform; dup-hot (zipf-skewed hot keys whose radius rotates every -dup-epoch, so each rotation is a stampede of concurrent misses on the same keys); stream (ingest target only: the user cohort rotates every -stream-burst, flooding the window store with fresh users); membership-churn (-cluster >= 2 with the freq target: retire a shard at T/3, admit a cold one at 2T/3 and serve T/3 past the join, reporting per-phase latency, hit rate and the join's latency)")
	fs.Float64Var(&cfg.zipfS, "zipf-s", 1.1, "dup-hot profile: zipf exponent (higher = more skew)")
	fs.DurationVar(&cfg.dupEpoch, "dup-epoch", 500*time.Millisecond, "dup-hot profile: radius rotation period")
	fs.IntVar(&cfg.streamUsers, "stream-users", 256, "ingest target: synthetic users per cohort (also sizes the in-process window store)")
	fs.IntVar(&cfg.streamBatch, "stream-batch", 8, "ingest target: NDJSON events per request")
	fs.DurationVar(&cfg.streamBurst, "stream-burst", 2*time.Second, "stream profile: cohort rotation period (each rotation is a flood of never-seen users)")
	fs.DurationVar(&cfg.streamTick, "stream-tick", 500*time.Millisecond, "in-process stream: windowed DP release period")
	fs.DurationVar(&cfg.computeCost, "compute-cost", 0, "in-process GSP: CPU time burned per CountTypes (like -audit-cost for the LBS: fixed yielding work makes a freq miss span scheduler slices, so dup-hot stampedes genuinely overlap even on few cores)")
	fs.IntVar(&cfg.admitLimit, "admit-limit", 0, "in-process servers' admission concurrency limit (0 = unlimited)")
	fs.IntVar(&cfg.admitQueue, "admit-queue", 64, "in-process servers' admission queue length")
	fs.DurationVar(&cfg.admitTimeout, "admit-timeout", 250*time.Millisecond, "in-process servers' admission queue wait cap")
	fs.DurationVar(&cfg.auditCost, "audit-cost", 0, "in-process LBS: CPU time burned per audited release (fixed work, so oversubscription inflates latency like a real service)")
	fs.DurationVar(&cfg.shedPause, "shed-pause", 100*time.Millisecond, "closed-loop worker pause after a 503 shed, emulating client backoff (0 = hammer)")
	fs.StringVar(&cfg.authKey, "auth-key", "", "sign requests as principal=hexkey; with -inprocess the servers also require that signature")
	fs.StringVar(&cfg.out, "out", "-", "report destination file (- = stdout)")
	fs.BoolVar(&cfg.assertRun, "assert", false, "exit nonzero when the run made no progress or hit unexpected errors")
	fs.BoolVar(&cfg.quiet, "quiet", false, "suppress the progress line on stderr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	for _, tgt := range strings.Split(*targets, ",") {
		tgt = strings.TrimSpace(tgt)
		switch tgt {
		case "freq", "batch", "release", "ingest":
			cfg.targets = append(cfg.targets, tgt)
		case "":
		default:
			return nil, fmt.Errorf("unknown target %q (want freq, batch, or release)", tgt)
		}
	}
	if len(cfg.targets) == 0 {
		return nil, errors.New("no targets selected")
	}
	if cfg.conc < 1 {
		return nil, errors.New("-conc must be >= 1")
	}
	if cfg.duration <= 0 {
		return nil, errors.New("-duration must be positive")
	}
	if cfg.shards < 0 {
		return nil, errors.New("-cluster must be >= 0")
	}
	switch cfg.profile {
	case "uniform", "dup-hot":
	case "stream":
		if !hasTarget(cfg.targets, "ingest") {
			return nil, errors.New("-profile stream drives the ingest target (add it to -targets)")
		}
	case "membership-churn":
		if cfg.shards < 2 {
			return nil, errors.New("-profile membership-churn needs -inprocess -cluster >= 2 (a fleet a shard can leave)")
		}
		if !hasTarget(cfg.targets, "freq") {
			return nil, errors.New("-profile membership-churn drives the freq target (add it to -targets)")
		}
	default:
		return nil, fmt.Errorf("unknown profile %q (want uniform, dup-hot, stream, or membership-churn)", cfg.profile)
	}
	if cfg.zipfS <= 0 {
		return nil, errors.New("-zipf-s must be positive")
	}
	if cfg.dupEpoch <= 0 {
		return nil, errors.New("-dup-epoch must be positive")
	}
	if cfg.streamUsers < 1 {
		return nil, errors.New("-stream-users must be >= 1")
	}
	if cfg.streamBatch < 1 {
		return nil, errors.New("-stream-batch must be >= 1")
	}
	if cfg.streamBurst <= 0 || cfg.streamTick <= 0 {
		return nil, errors.New("-stream-burst and -stream-tick must be positive")
	}
	if cfg.shards > 0 && !cfg.inprocess {
		return nil, errors.New("-cluster needs -inprocess (point -gsp at a running gspgw to load-test a real fleet)")
	}
	if !cfg.inprocess {
		needsGSP := false
		needsLBS := false
		for _, tgt := range cfg.targets {
			switch tgt {
			case "freq", "batch":
				needsGSP = true
			case "release", "ingest":
				needsLBS = true
			}
		}
		if needsGSP && cfg.gspURL == "" {
			return nil, errors.New("freq/batch targets need -gsp (or -inprocess)")
		}
		if needsLBS && cfg.lbsURL == "" {
			return nil, errors.New("release/ingest targets need -lbs (or -inprocess)")
		}
	}
	return cfg, nil
}

// costedAuditor burns a fixed amount of CPU work before each audit
// (-audit-cost). Unlike a sleep, fixed work does not parallelize for
// free: when concurrent requests outnumber cores, each one's wall time
// stretches — the failure mode a load test must be able to provoke.
type costedAuditor struct {
	inner wire.Auditor
	iters uint64
}

func (a costedAuditor) Audit(f poi.FreqVector, r float64) (bool, int) {
	busySpin(a.iters)
	return a.inner.Audit(f, r)
}

// costedIndex burns fixed CPU work before each CountTypes
// (-compute-cost), the GSP-side analogue of costedAuditor: busySpin's
// periodic yields let other handler goroutines run mid-compute, so a
// dup-hot epoch rotation produces genuinely concurrent misses on the
// same key — the stampede the singleflight coalescer exists to collapse
// — even when GOMAXPROCS is small.
type costedIndex struct {
	index.Index
	iters uint64
}

func (ci costedIndex) CountTypes(out poi.FreqVector, center geo.Point, radius float64) {
	busySpin(ci.iters)
	ci.Index.CountTypes(out, center, radius)
}

// busySink defeats dead-code elimination of busySpin.
var busySink atomic.Uint64

// busySpin runs n rounds of a cheap integer mix, yielding to the
// scheduler every ~64k iterations. The yields matter on small
// GOMAXPROCS: an unpreemptible spin would serialize the whole process
// (client, server, and admission gate), hiding the very concurrency the
// load test exists to create — real handlers yield constantly at call
// and I/O points.
func busySpin(n uint64) {
	acc := uint64(0x9e3779b97f4a7c15)
	for i := uint64(0); i < n; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
		if i&(1<<16-1) == 1<<16-1 {
			runtime.Gosched()
		}
	}
	busySink.Store(acc)
}

// calibrateBusy measures the spin rate once and returns the iteration
// count whose single-threaded execution takes roughly d.
func calibrateBusy(d time.Duration) uint64 {
	const probe = 1 << 22
	start := time.Now()
	busySpin(probe)
	per := time.Since(start)
	if per <= 0 {
		per = time.Nanosecond
	}
	return uint64(float64(probe) * float64(d) / float64(per))
}

// churnPhaseNames label the membership-churn schedule: full fleet,
// after the victim shard is retired, after the cold joiner is admitted.
var churnPhaseNames = [3]string{"steady", "departed", "rejoined"}

// cacheMark is an aggregate cache-counter snapshot across every shard
// service at a phase boundary; phase hit rates are deltas between marks.
type cacheMark struct{ hits, misses uint64 }

// churnRun carries the membership-churn profile's moving parts: which
// phase the run is in (workers attribute freq outcomes to it), the
// per-shard services whose freq-cache counters it sums, and the handles
// the controller needs to kill the victim and stop the joiner afterwards.
type churnRun struct {
	victim     string
	joiner     string
	killVictim func()
	stopJoiner func()
	phase      atomic.Int32
	phases     [3]*targetStats
	marks      [4]cacheMark
	join       time.Duration // how long the admit call took

	mu     sync.Mutex
	shards []*gsp.Service
	err    error
}

func newChurnRun(victim string, killVictim func(), shards []*gsp.Service) *churnRun {
	c := &churnRun{victim: victim, killVictim: killVictim, shards: shards, stopJoiner: func() {}}
	for i := range c.phases {
		c.phases[i] = &targetStats{}
	}
	return c
}

// record attributes one freq outcome to the current phase.
func (c *churnRun) record(d time.Duration, err error) {
	c.phases[c.phase.Load()].record(d, err)
}

func (c *churnRun) addShard(s *gsp.Service) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shards = append(c.shards, s)
}

// sumCache sums the freq-cache hit/miss counters across every shard,
// retired ones included (their counters freeze, so deltas stay
// correct). A miss is a request that reached a real CountTypes
// computation: what a cold joiner pays.
func (c *churnRun) sumCache() cacheMark {
	c.mu.Lock()
	defer c.mu.Unlock()
	var m cacheMark
	for _, s := range c.shards {
		h, mi := s.CacheStats()
		m.hits += h
		m.misses += mi
	}
	return m
}

func (c *churnRun) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
}

func (c *churnRun) failure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// targetStats accumulates one endpoint's outcomes; all fields are safe
// for concurrent use.
type targetStats struct {
	total, ok, shed, denied, bad, transport atomic.Uint64
	hist                                    obs.Histogram
	okHist                                  obs.Histogram
}

func (ts *targetStats) record(d time.Duration, err error) {
	ts.total.Add(1)
	ts.hist.Observe(d)
	switch {
	case err == nil:
		ts.ok.Add(1)
		ts.okHist.Observe(d)
	case errors.Is(err, wire.ErrOverloaded):
		ts.shed.Add(1)
	case errors.Is(err, wire.ErrBudgetDenied):
		ts.denied.Add(1)
	case errors.Is(err, wire.ErrBadRequest):
		ts.bad.Add(1)
	default:
		ts.transport.Add(1)
	}
}

func run(args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}

	city, err := buildCity(cfg)
	if err != nil {
		return err
	}
	locs := city.RandomLocations(4096, cfg.seed+7)

	var signPrincipal string
	var signKey []byte
	if cfg.authKey != "" {
		signPrincipal, signKey, err = wire.ParseSigningKey(cfg.authKey)
		if err != nil {
			return err
		}
	}

	gspURL, lbsURL := cfg.gspURL, cfg.lbsURL
	var inprocSvc *gsp.Service
	var streamStore *stream.Store
	var streamRel *stream.Releaser
	var churn *churnRun
	var churnNewShard func() (string, *gsp.Service)
	var clusterReg *obs.Registry
	if cfg.inprocess {
		if cfg.computeCost > 0 {
			iters := calibrateBusy(cfg.computeCost)
			city.City.WrapIndex(func(ix index.Index) index.Index {
				return costedIndex{Index: ix, iters: iters}
			})
		}
		svc := gsp.NewService(city.City, 1<<14)
		inprocSvc = svc
		serverOpts := []wire.ServerOption{wire.WithLogger(log.New(io.Discard, "", 0))}
		if cfg.admitLimit > 0 {
			serverOpts = append(serverOpts,
				wire.WithAdmission(cfg.admitLimit, cfg.admitQueue, cfg.admitTimeout))
		}
		if signKey != nil {
			// Provision the in-process servers with the same key the
			// clients sign with, so -auth-key measures the stack with
			// signature verification on the hot path.
			kr := wire.NewKeyring()
			if err := kr.Add(signPrincipal, signKey); err != nil {
				return err
			}
			serverOpts = append(serverOpts, wire.WithAuth(kr))
		}
		// The region audit on the small in-process city takes microseconds;
		// -audit-cost pads it to a realistic CPU-bound service time, which
		// is what makes saturation (and shedding) observable: fixed work
		// per request means oversubscribed cores stretch every request,
		// exactly the collapse admission control exists to prevent.
		var auditor wire.Auditor = wire.RegionAuditor{Svc: svc}
		if cfg.auditCost > 0 {
			auditor = costedAuditor{inner: auditor, iters: calibrateBusy(cfg.auditCost)}
		}
		lbsOpts := append([]wire.ServerOption{wire.WithAuditor(auditor)}, serverOpts...)
		if hasTarget(cfg.targets, "ingest") {
			// Window store sized to exactly one cohort: the stream
			// profile's rotations then force real eviction churn while the
			// event count stays hard-bounded at users × per-user cap.
			streamStore, err = stream.NewStore(stream.Config{
				MaxUsers: cfg.streamUsers,
				City:     city.City,
				Radius:   cfg.radius,
			})
			if err != nil {
				return err
			}
			mech, err := defense.NewDPRelease(svc, nil, defense.DefaultDPReleaseConfig())
			if err != nil {
				return err
			}
			streamRel, err = stream.NewReleaser(streamStore, mech, nil, stream.ReleaserConfig{
				Interval: cfg.streamTick,
				Seed:     cfg.seed,
			})
			if err != nil {
				return err
			}
			lbsOpts = append(lbsOpts, wire.WithStream(streamStore, streamRel))
		}
		if cfg.shards > 0 {
			// Cluster mode: N shards behind an in-memory gateway, each
			// shard configured exactly like the single node would be. The
			// gateway inherits the same admission/auth ServerOptions and
			// re-signs shard calls with the load key, so signed runs keep
			// verification on both hops. The membership-churn profile
			// gives each shard its own service — shared caches would hide
			// the very hit-rate dip the profile exists to measure.
			churnMode := cfg.profile == "membership-churn"
			peers := make([]string, cfg.shards)
			shards := make([]*gsp.Service, cfg.shards)
			closers := make([]func(), cfg.shards)
			for i := range peers {
				shardSvc := svc
				if churnMode {
					shardSvc = gsp.NewService(city.City, 1<<14)
				}
				shards[i] = shardSvc
				shardTS := httptest.NewServer(wire.NewGSPServer(shardSvc, serverOpts...))
				defer shardTS.Close()
				peers[i] = shardTS.URL
				closers[i] = shardTS.Close
			}
			gwOpts := append([]wire.ServerOption(nil), serverOpts...)
			var peerOpts []wire.ClientOption
			if signKey != nil {
				peerOpts = append(peerOpts, wire.WithSigningKey(signPrincipal, signKey))
			}
			gwOpts = append(gwOpts, wire.WithPeerClientOptions(peerOpts...))
			if churnMode {
				clusterReg = obs.NewRegistry()
				gwOpts = append(gwOpts, wire.WithMetrics(clusterReg))
				if signKey != nil {
					gwOpts = append(gwOpts, wire.WithClusterAdmin(signPrincipal))
				}
				churn = newChurnRun(peers[0], closers[0], append([]*gsp.Service(nil), shards...))
				churnNewShard = func() (string, *gsp.Service) {
					s := gsp.NewService(city.City, 1<<14)
					ts := httptest.NewServer(wire.NewGSPServer(s, serverOpts...))
					churn.stopJoiner = ts.Close
					return ts.URL, s
				}
				// Per-shard services own the cache counters now; the churn
				// block reports them per phase instead of a GSP block.
				inprocSvc = nil
			}
			gw, err := wire.NewClusterGateway(peers, gwOpts...)
			if err != nil {
				return err
			}
			gwTS := httptest.NewServer(gw)
			defer gwTS.Close()
			gspURL = gwTS.URL
		} else {
			gspTS := httptest.NewServer(wire.NewGSPServer(svc, serverOpts...))
			defer gspTS.Close()
			gspURL = gspTS.URL
		}
		lbsTS := httptest.NewServer(wire.NewLBSServer(city.M(), lbsOpts...))
		defer lbsTS.Close()
		lbsURL = lbsTS.URL
	}

	clientOpts := []wire.ClientOption{wire.WithRequestTimeout(cfg.timeout)}
	if signKey != nil {
		clientOpts = append(clientOpts, wire.WithSigningKey(signPrincipal, signKey))
	}
	gspClient := wire.NewGSPClient(gspURL, nil, clientOpts...)
	lbsClient := wire.NewLBSClient(lbsURL, nil, clientOpts...)

	// One frequency vector serves every release: the LBS only checks its
	// dimension, and computing it locally keeps the release target free
	// of any GSP dependency.
	var relFreq []int
	for _, tgt := range cfg.targets {
		if tgt == "release" {
			svc := gsp.NewService(city.City, 1<<10)
			relFreq = svc.Freq(locs[0], cfg.radius)
			break
		}
	}

	stats := make(map[string]*targetStats, len(cfg.targets))
	for _, tgt := range cfg.targets {
		stats[tgt] = &targetStats{}
	}
	var overall, overallOK obs.Histogram

	// dup-hot: zipf-skewed picks over a small hot key set, with the
	// radius rotating every -dup-epoch. Each rotation invalidates every
	// hot key at once, so all workers stampede the same fresh misses —
	// the duplicate-compute storm the singleflight coalescer collapses.
	var zipf *zipfPicker
	hotLocs := locs
	if cfg.profile == "dup-hot" {
		if len(hotLocs) > 512 {
			hotLocs = hotLocs[:512]
		}
		zipf = newZipfPicker(len(hotLocs), cfg.zipfS)
	}
	epochStart := time.Now()

	doOne := func(workerID, seq int, rng *rand.Rand) {
		tgt := cfg.targets[seq%len(cfg.targets)]
		ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
		defer cancel()
		radius := cfg.radius
		if zipf != nil {
			radius += float64(time.Since(epochStart) / cfg.dupEpoch)
		}
		start := time.Now()
		var err error
		switch tgt {
		case "freq":
			l := locs[rng.IntN(len(locs))]
			if zipf != nil {
				l = hotLocs[zipf.pick(rng)]
			}
			_, err = gspClient.Freq(ctx, l, radius)
		case "batch":
			items := make([]wire.BatchItem, cfg.batchN)
			for i := range items {
				l := locs[rng.IntN(len(locs))]
				if zipf != nil {
					l = hotLocs[zipf.pick(rng)]
				}
				items[i] = wire.BatchItem{X: l.X, Y: l.Y, R: radius}
			}
			_, err = gspClient.QueryBatch(ctx, items)
		case "release":
			_, err = lbsClient.Release(ctx, wire.ReleaseRequest{
				UserID: fmt.Sprintf("load-%d", workerID),
				Freq:   relFreq,
				R:      cfg.radius,
			})
		case "ingest":
			// Under the stream profile the cohort index advances every
			// -stream-burst, so each epoch's user IDs have never been seen
			// before — a sustained flood of evict-and-admit work.
			cohort := 0
			if cfg.profile == "stream" {
				cohort = int(time.Since(epochStart) / cfg.streamBurst)
			}
			now := time.Now()
			evs := make([]stream.Event, cfg.streamBatch)
			for i := range evs {
				l := locs[rng.IntN(len(locs))]
				evs[i] = stream.Event{
					UserID: fmt.Sprintf("s%d-%d", cohort, rng.IntN(cfg.streamUsers)),
					X:      l.X, Y: l.Y, TS: now,
				}
			}
			_, err = lbsClient.Ingest(ctx, evs)
		}
		d := time.Since(start)
		stats[tgt].record(d, err)
		if churn != nil && tgt == "freq" {
			churn.record(d, err)
		}
		overall.Observe(d)
		if err == nil {
			overallOK.Observe(d)
		}
		// A shed worker pauses like a well-behaved client would (the wire
		// client sleeps min(Retry-After, backoff)); without this, a
		// closed loop degenerates into a shed-hammer whose rejection
		// traffic alone saturates the server's cores.
		if cfg.shedPause > 0 && errors.Is(err, wire.ErrOverloaded) {
			time.Sleep(cfg.shedPause)
		}
	}

	if !cfg.quiet {
		mode := "closed-loop"
		if cfg.rate > 0 {
			mode = fmt.Sprintf("open-loop %.0f req/s", cfg.rate)
		}
		fmt.Fprintf(os.Stderr, "loadgen: driving %s for %v (%s, conc %d, admit-limit %d)\n",
			strings.Join(cfg.targets, "+"), cfg.duration, mode, cfg.conc, cfg.admitLimit)
	}

	stopStream := func() {}
	if streamRel != nil {
		stopStream = streamRel.Start(nil)
	}
	// Traffic runs for -duration, or until the churn controller ends it:
	// retire the victim through the admin API at T/3 (then kill its
	// server), admit a brand-new cold shard, which the gateway checks,
	// at 2T/3, and serve T/3 more once the join returns. Admin calls have
	// their own -timeout deadline: a slow join lengthens the run.
	var traffic context.Context
	var endTraffic context.CancelFunc
	if churn == nil {
		traffic, endTraffic = context.WithTimeout(context.Background(), cfg.duration)
	} else {
		traffic, endTraffic = context.WithCancel(context.Background())
	}
	defer endTraffic()
	churnDone := make(chan struct{})
	if churn == nil {
		close(churnDone)
	} else {
		churn.marks[0] = churn.sumCache()
		go func() {
			defer close(churnDone)
			defer endTraffic()
			third := cfg.duration / 3
			time.Sleep(third)
			churn.marks[1] = churn.sumCache()
			ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
			_, err := gspClient.ClusterLeave(ctx, churn.victim)
			cancel()
			if err != nil {
				churn.fail(fmt.Errorf("churn: retire %s: %w", churn.victim, err))
				return
			}
			churn.killVictim()
			churn.phase.Store(1)
			if !cfg.quiet {
				fmt.Fprintf(os.Stderr, "loadgen: churn: retired shard %s\n", churn.victim)
			}
			time.Sleep(third)
			joinURL, joinShard := churnNewShard()
			ctx, cancel = context.WithTimeout(context.Background(), cfg.timeout)
			start := time.Now()
			_, err = gspClient.ClusterJoin(ctx, joinURL)
			churn.join = time.Since(start)
			cancel()
			if err != nil {
				churn.fail(fmt.Errorf("churn: admit %s: %w", joinURL, err))
				return
			}
			churn.joiner = joinURL
			churn.addShard(joinShard)
			// Marked once the joiner's counters are in the sum, so the
			// join's own city-check requests stay out of the rejoined
			// phase.
			churn.marks[2] = churn.sumCache()
			churn.phase.Store(2)
			if !cfg.quiet {
				fmt.Fprintf(os.Stderr, "loadgen: churn: admitted cold shard %s in %v\n", joinURL, churn.join)
			}
			time.Sleep(third)
		}()
	}
	wallStart := time.Now()
	if cfg.rate > 0 {
		runOpenLoop(traffic, cfg, doOne)
	} else {
		runClosedLoop(traffic, cfg, doOne)
	}
	wall := time.Since(wallStart)
	stopStream() // final flush, so Releases counts the drained window too
	<-churnDone
	if churn != nil {
		churn.marks[3] = churn.sumCache()
		churn.stopJoiner()
		if err := churn.failure(); err != nil {
			return err
		}
	}

	report := buildReport(cfg, stats, &overall, &overallOK, wall)
	if inprocSvc != nil {
		hits, misses := inprocSvc.CacheStats()
		sf := inprocSvc.SingleflightMetrics()
		report.GSP = &GSPStats{
			CacheHits:   hits,
			CacheMisses: misses,
			SFLeader:    sf.Leader,
			SFJoined:    sf.Hits,
			SFShared:    sf.Shared,
			Computes:    sf.Leader + (sf.Hits - sf.Shared),
		}
	}
	if churn != nil {
		snap := clusterReg.Snapshot()
		cs := &ChurnStats{
			Victim: churn.victim,
			Joiner: churn.joiner,
			Joins:  snap.Counters[wire.MetricClusterJoins],
			Leaves: snap.Counters[wire.MetricClusterLeaves],
			JoinMs: float64(churn.join) / float64(time.Millisecond),
		}
		for i, name := range churnPhaseNames {
			ps := churn.phases[i]
			dh := churn.marks[i+1].hits - churn.marks[i].hits
			dm := churn.marks[i+1].misses - churn.marks[i].misses
			hr := 0.0
			if dh+dm > 0 {
				hr = float64(dh) / float64(dh+dm)
			}
			cs.Phases = append(cs.Phases, ChurnPhase{
				Name:            name,
				Total:           ps.total.Load(),
				OK:              ps.ok.Load(),
				TransportErrors: ps.transport.Load(),
				Latency:         obs.SnapshotLatency(&ps.hist),
				HitRate:         hr,
			})
		}
		report.Churn = cs
	}
	if streamStore != nil {
		sc := streamStore.Config()
		ss := streamStore.Stats()
		report.Stream = &StreamStats{
			EventsAccepted: ss.Accepted,
			EventsRejected: ss.Rejected,
			EventsDeduped:  ss.Deduped,
			EventsDropped:  ss.Dropped,
			UsersEvicted:   ss.UsersEvicted,
			ActiveUsers:    ss.ActiveUsers,
			WindowEvents:   ss.WindowEvents,
			WindowEventCap: sc.MaxUsers * sc.MaxPerUser,
			Releases:       streamRel.Ticks(),
		}
	}
	if err := emit(report, cfg.out, stdout); err != nil {
		return err
	}
	if cfg.assertRun {
		if report.OK == 0 {
			return errors.New("assert: zero successful requests")
		}
		if report.BadRequest > 0 || report.TransportErrors > 0 {
			return fmt.Errorf("assert: unexpected errors (badRequest=%d transport=%d)",
				report.BadRequest, report.TransportErrors)
		}
		if g := report.GSP; g != nil && cfg.profile == "dup-hot" && g.SFJoined == 0 {
			return errors.New("assert: dup-hot stampedes joined no in-flight computation (sfJoined=0)")
		}
		if s := report.Stream; s != nil && s.WindowEvents > s.WindowEventCap {
			return fmt.Errorf("assert: window store exceeded its memory bound (%d events > cap %d)",
				s.WindowEvents, s.WindowEventCap)
		}
		if c := report.Churn; c != nil {
			if c.Leaves == 0 || c.Joins == 0 {
				return fmt.Errorf("assert: churn transitions did not run (joins=%d leaves=%d)", c.Joins, c.Leaves)
			}
			for _, p := range c.Phases {
				if p.OK == 0 {
					return fmt.Errorf("assert: churn phase %q made no progress", p.Name)
				}
			}
		}
	}
	return nil
}

// hasTarget reports whether tgt is among the selected targets.
func hasTarget(targets []string, tgt string) bool {
	for _, t := range targets {
		if t == tgt {
			return true
		}
	}
	return false
}

// runClosedLoop keeps cfg.conc workers saturated until ctx ends.
func runClosedLoop(ctx context.Context, cfg *config, doOne func(workerID, seq int, rng *rand.Rand)) {
	var wg sync.WaitGroup
	for w := 0; w < cfg.conc; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.seed, uint64(id)))
			for seq := id; ctx.Err() == nil; seq++ {
				doOne(id, seq, rng)
			}
		}(w)
	}
	wg.Wait()
}

// runOpenLoop starts requests on a fixed schedule until ctx ends —
// up to cfg.conc may be in flight; arrivals beyond that are dropped on
// the floor and counted nowhere, mirroring a client population that
// stops listening when the service lags.
func runOpenLoop(ctx context.Context, cfg *config, doOne func(workerID, seq int, rng *rand.Rand)) {
	interval := time.Duration(float64(time.Second) / cfg.rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	slots := make(chan int, cfg.conc)
	for i := 0; i < cfg.conc; i++ {
		slots <- i
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var wg sync.WaitGroup
	seq := 0
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-tick.C:
			select {
			case id := <-slots:
				wg.Add(1)
				seq++
				go func(id, seq int) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(cfg.seed, uint64(seq)))
					doOne(id, seq, rng)
					slots <- id
				}(id, seq)
			default: // all in-flight slots busy: drop this arrival
			}
		}
	}
}

func buildCity(cfg *config) (*citygen.City, error) {
	var p citygen.Params
	switch cfg.city {
	case "beijing":
		p = citygen.Beijing(cfg.seed)
	case "nyc":
		p = citygen.NewYork(cfg.seed)
	default:
		return nil, fmt.Errorf("unknown city %q (want beijing or nyc)", cfg.city)
	}
	if cfg.inprocess {
		// The in-process smoke mode wants startup in milliseconds, not a
		// full synthetic metropolis; the wire stack's behavior under load
		// does not depend on city size.
		p.NumPOIs = 2000
		p.NumTypes = 60
		p.Width, p.Height = 12_000, 12_000
		if cfg.profile == "dup-hot" {
			// dup-hot measures duplicate-compute collapse, so the compute
			// must cost something: a 10× denser city makes each CountTypes
			// expensive enough that redundant ones move the needle.
			p.NumPOIs = 20_000
			p.Width, p.Height = 20_000, 20_000
		}
	}
	return citygen.Generate(p)
}

// zipfPicker samples ranks 0..n-1 with P(i) ∝ 1/(i+1)^s by inverse CDF
// over precomputed cumulative weights (math/rand/v2 ships no Zipf).
type zipfPicker struct{ cum []float64 }

func newZipfPicker(n int, s float64) *zipfPicker {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return &zipfPicker{cum: cum}
}

func (z *zipfPicker) pick(rng *rand.Rand) int {
	u := rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}

func buildReport(cfg *config, stats map[string]*targetStats, overall, overallOK *obs.Histogram, wall time.Duration) Report {
	mode := "remote"
	if cfg.inprocess {
		mode = "inprocess"
	}
	rep := Report{
		Name: cfg.name,
		Config: ReportConfig{
			Mode:          mode,
			Targets:       strings.Join(cfg.targets, ","),
			Concurrency:   cfg.conc,
			RateRPS:       cfg.rate,
			AdmitLimit:    cfg.admitLimit,
			BatchItems:    cfg.batchN,
			ClusterShards: cfg.shards,
		},
		DurationSeconds: wall.Seconds(),
		Latency:         obs.SnapshotLatency(overall),
		OKLatency:       obs.SnapshotLatency(overallOK),
		PerTarget:       make(map[string]TargetReport, len(stats)),
	}
	if cfg.profile != "uniform" {
		rep.Config.Profile = cfg.profile
		if cfg.profile == "dup-hot" {
			rep.Config.ZipfS = cfg.zipfS
			rep.Config.DupEpoch = cfg.dupEpoch.String()
		}
	}
	if hasTarget(cfg.targets, "ingest") {
		rep.Config.StreamUsers = cfg.streamUsers
		rep.Config.StreamBatch = cfg.streamBatch
		if cfg.profile == "stream" {
			rep.Config.StreamBurst = cfg.streamBurst.String()
		}
	}
	if cfg.admitLimit > 0 {
		rep.Config.AdmitQueue = cfg.admitQueue
		rep.Config.AdmitTimeout = cfg.admitTimeout.String()
	}
	for tgt, ts := range stats {
		rep.Total += ts.total.Load()
		rep.OK += ts.ok.Load()
		rep.Shed503 += ts.shed.Load()
		rep.Denied429 += ts.denied.Load()
		rep.BadRequest += ts.bad.Load()
		rep.TransportErrors += ts.transport.Load()
		rep.PerTarget[tgt] = TargetReport{
			Total:     ts.total.Load(),
			OK:        ts.ok.Load(),
			Shed503:   ts.shed.Load(),
			Denied429: ts.denied.Load(),
			Latency:   obs.SnapshotLatency(&ts.hist),
		}
	}
	if wall > 0 {
		rep.ThroughputRPS = float64(rep.OK) / wall.Seconds()
	}
	return rep
}

func emit(rep Report, out string, stdout io.Writer) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "-" || out == "" {
		_, err = stdout.Write(buf)
		return err
	}
	return os.WriteFile(out, buf, 0o644)
}
