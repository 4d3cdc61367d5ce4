// Command lbsd serves the LBS application of the paper's architecture:
// it accepts POI-aggregate releases from users and, when pointed at the
// public GSP, audits every release with the region re-identification
// attack — letting an operator observe in real time how identifying the
// "anonymous" aggregates are.
//
// Usage:
//
//	lbsd -addr :8081 -city beijing          # audit against a local city copy
//	lbsd -addr :8081 -city beijing -no-audit
//	lbsd -addr :8081 -city beijing -budget -budget-dir /var/lib/lbsd
//
// With -budget every release charges (-release-eps, -release-delta)
// against the caller's privacy-budget ledger (principal taken from the
// X-Principal header, ?principal=, or the release's userId); exhausted
// principals get 429 until their sliding window refills. -budget-dir
// makes the ledger crash-safe (snapshot + spend log) across restarts.
//
// With -auth-keys every API request must carry an HMAC-SHA256 signature
// (X-Auth header) from a provisioned principal, and the budget charges
// ONLY the signature-verified identity — the header/query/userId
// fallback chain is disabled. Keys are given inline
// ("alice=<hexkey>,...") or via @file, one principal=hexkey per line.
//
// With -stream the daemon also ingests live check-ins (POST /v1/ingest,
// NDJSON, one event per line) into a sliding window with bounded
// memory: at most -history-users distinct users (second-chance eviction
// past it) times -stream-per-user events each. Every -stream-tick the
// window is aggregated into one differentially private frequency vector
// (GET /v1/stream/releases). Each check-in's POI types within
// -stream-radius are counted once, at the first tick that sees it, into
// its user's running window sum; these counts bypass the gsp cache the
// audits use. The mechanism is the paper's Gaussian release at
// (-stream-eps, -stream-delta), and with -budget each release charges
// that same pair to every contributing principal. Its noise comes from
// a root seed drawn from crypto/rand at boot and never published;
// -stream-seed pins one instead, for replaying releases. SIGTERM drains the
// window through one final release before the ledger closes, so
// in-flight check-ins are released and charged, not dropped.
//
// Endpoints: POST /v1/release, GET /v1/releases?user=, the budget admin
// pair GET /v1/budget/{principal} and POST /v1/budget/{principal}/reset
// (with -budget), POST /v1/ingest and GET /v1/stream/releases (with
// -stream), plus the operational /v1/metrics, /healthz, /readyz.
package main

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/citygen"
	"poiagg/internal/defense"
	"poiagg/internal/gsp"
	"poiagg/internal/obs"
	"poiagg/internal/stream"
	"poiagg/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lbsd:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set.
type config struct {
	server            *wire.ServerFlags
	cityName          string
	seed              uint64
	noAudit           bool
	historyLimit      int
	historyUsers      int
	budgetOn          bool
	budgetEps         float64
	budgetDelta       float64
	budgetWindow      time.Duration
	budgetWindowEps   float64
	budgetWindowDelta float64
	releaseEps        float64
	releaseDelta      float64
	budgetDir         string
	budgetTTL         time.Duration
	snapshotEvery     int
	streamOn          bool
	streamWindow      time.Duration
	streamTick        time.Duration
	streamRadius      float64
	streamPerUser     int
	streamHistory     int
	streamSeed        uint64
	streamEps         float64
	streamDelta       float64
}

// declareFlags declares lbsd's flags on fs.
func declareFlags(fs *flag.FlagSet) *config {
	cfg := &config{server: wire.DeclareServerFlags(fs, ":8081")}
	fs.StringVar(&cfg.cityName, "city", "beijing", "city preset the releases refer to")
	fs.Uint64Var(&cfg.seed, "seed", 1, "city generation seed (must match the GSP's)")
	fs.BoolVar(&cfg.noAudit, "no-audit", false, "disable re-identification auditing")
	fs.IntVar(&cfg.historyLimit, "history", 1000, "stored releases per user")
	fs.IntVar(&cfg.historyUsers, "history-users", wire.DefaultHistoryUsers, "max distinct users with stored history (second-chance eviction past it)")
	fs.BoolVar(&cfg.budgetOn, "budget", false, "enforce a per-principal privacy budget on releases")
	fs.Float64Var(&cfg.budgetEps, "budget-eps", 10, "lifetime epsilon budget per principal")
	fs.Float64Var(&cfg.budgetDelta, "budget-delta", 1e-3, "lifetime delta budget per principal")
	fs.DurationVar(&cfg.budgetWindow, "budget-window", 24*time.Hour, "sliding refill window (0 = lifetime budget only)")
	fs.Float64Var(&cfg.budgetWindowEps, "budget-window-eps", 1.5, "epsilon allowed inside each window")
	fs.Float64Var(&cfg.budgetWindowDelta, "budget-window-delta", 0, "delta allowed inside each window (0 = delta not windowed)")
	fs.Float64Var(&cfg.releaseEps, "release-eps", 0.5, "epsilon charged per accepted release")
	fs.Float64Var(&cfg.releaseDelta, "release-delta", 1e-6, "delta charged per accepted release")
	fs.StringVar(&cfg.budgetDir, "budget-dir", "", "ledger persistence directory (empty = in-memory)")
	fs.DurationVar(&cfg.budgetTTL, "budget-idle-ttl", 0, "retire ledgers idle this long (0 disables; must be >= the window)")
	fs.IntVar(&cfg.snapshotEvery, "budget-snapshot-every", 1000, "auto-snapshot the persistent ledger every N logged spends")
	fs.BoolVar(&cfg.streamOn, "stream", false, "ingest live check-ins (POST /v1/ingest) and publish windowed DP releases")
	fs.DurationVar(&cfg.streamWindow, "stream-window", 5*time.Minute, "sliding check-in window per user")
	fs.DurationVar(&cfg.streamTick, "stream-tick", stream.DefaultInterval, "period between windowed DP releases")
	fs.Float64Var(&cfg.streamRadius, "stream-radius", stream.DefaultRadius, "POI query radius in meters for window aggregates")
	fs.IntVar(&cfg.streamPerUser, "stream-per-user", 64, "max events kept per user window (oldest dropped past it)")
	fs.IntVar(&cfg.streamHistory, "stream-history", stream.DefaultHistory, "windowed releases kept for GET /v1/stream/releases")
	fs.Uint64Var(&cfg.streamSeed, "stream-seed", 0, "root seed for windowed release noise (0 draws a secret one from crypto/rand at boot; pin it only to replay releases)")
	fs.Float64Var(&cfg.streamEps, "stream-eps", 0.5, "epsilon of each windowed release, charged per principal with -budget")
	fs.Float64Var(&cfg.streamDelta, "stream-delta", 1e-6, "delta of each windowed release, charged per principal with -budget")
	return cfg
}

func run(args []string) error {
	fs := flag.NewFlagSet("lbsd", flag.ContinueOnError)
	cfg := declareFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(os.Stderr, "lbsd ", log.LstdFlags)
	d, err := build(cfg, logger)
	if err != nil {
		return err
	}
	defer d.close(logger)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if d.led != nil && cfg.budgetTTL > 0 {
		startEvictLoop(ctx, logger, d.led, cfg.budgetTTL)
	}
	logger.Printf("LBS app for %s on %s (audit=%v, metrics at %s)",
		cfg.cityName, cfg.server.Addr, !cfg.noAudit, obs.PathMetrics)
	return d.srv.ListenAndServe(ctx, cfg.server.Addr)
}

// daemon is lbsd assembled from its flags: the server, and the ledger
// and stream release loop that its shutdown tail drains.
type daemon struct {
	srv        *wire.LBSServer
	led        *budget.Ledger   // nil without -budget
	rel        *stream.Releaser // nil without -stream
	stopStream func()           // nil without -stream
}

// close is the daemon's shutdown tail (stopStreamAndCloseLedger).
func (d *daemon) close(logger *log.Logger) {
	stopStreamAndCloseLedger(logger, d.stopStream, d.led)
}

// build assembles lbsd from cfg without binding a listener. When it
// fails, it drains whatever it had already opened.
func build(cfg *config, logger *log.Logger) (_ *daemon, err error) {
	var p citygen.Params
	switch cfg.cityName {
	case "beijing":
		p = citygen.Beijing(cfg.seed)
	case "nyc":
		p = citygen.NewYork(cfg.seed)
	default:
		return nil, fmt.Errorf("unknown city %q", cfg.cityName)
	}
	city, err := citygen.Generate(p)
	if err != nil {
		return nil, err
	}

	reg := obs.NewRegistry()
	opts, err := cfg.server.Options(logger)
	if err != nil {
		return nil, err
	}
	opts = append(opts,
		wire.WithHistoryLimit(cfg.historyLimit),
		wire.WithHistoryUsers(cfg.historyUsers),
		wire.WithMetrics(reg))
	if !cfg.noAudit {
		svc := gsp.NewService(city.City, 1<<18)
		svc.ExportMetrics(reg)
		opts = append(opts, wire.WithAuditor(wire.RegionAuditor{Svc: svc}))
	}

	// The shutdown tail drains the stateful subsystems in dependency
	// order: the stream's final flush charges the ledger, so it must run
	// before the ledger's closing snapshot.
	d := &daemon{}
	defer func() {
		if err != nil {
			d.close(logger)
		}
	}()
	if cfg.budgetOn {
		policy := budget.Policy{
			LifetimeEps:   cfg.budgetEps,
			LifetimeDelta: cfg.budgetDelta,
			Window:        cfg.budgetWindow,
			WindowEps:     cfg.budgetWindowEps,
			WindowDelta:   cfg.budgetWindowDelta,
			IdleTTL:       cfg.budgetTTL,
		}
		if cfg.budgetDir != "" {
			d.led, err = budget.Open(policy, cfg.budgetDir, budget.WithSnapshotEvery(cfg.snapshotEvery))
		} else {
			d.led, err = budget.New(policy)
		}
		if err != nil {
			return nil, err
		}
		d.led.ExportMetrics(reg)
		opts = append(opts, wire.WithBudget(d.led, cfg.releaseEps, cfg.releaseDelta))
		logger.Printf("budget enforcement on: (ε=%v, δ=%v) per release, window %v of ε=%v, lifetime ε=%v, persistence %q",
			cfg.releaseEps, cfg.releaseDelta, policy.Window, policy.WindowEps, policy.LifetimeEps, cfg.budgetDir)
	}

	if cfg.streamOn {
		st, err := stream.NewStore(stream.Config{
			Window:     cfg.streamWindow,
			MaxUsers:   cfg.historyUsers,
			MaxPerUser: cfg.streamPerUser,
			City:       city.City,
			Radius:     cfg.streamRadius,
		})
		if err != nil {
			return nil, err
		}
		// One source for the release's (ε, δ): the mechanism spends what
		// the releaser charges. It releases the users' window sums and
		// cloaks no one, so it needs no population, and its service only
		// names the city.
		dpCfg := defense.DefaultDPReleaseConfig()
		dpCfg.Eps, dpCfg.Delta = cfg.streamEps, cfg.streamDelta
		mech, err := defense.NewDPRelease(gsp.NewService(city.City, 0), nil, dpCfg)
		if err != nil {
			return nil, err
		}
		// Every public release carries its tick, so a known root seed
		// lets anyone recompute its noise: unless a seed is pinned, draw
		// one that is never logged or published.
		seed := cfg.streamSeed
		if seed == 0 {
			var b [8]byte
			_, _ = rand.Read(b[:]) // never fails: since Go 1.24 it crashes the process instead
			seed = binary.LittleEndian.Uint64(b[:])
		}
		d.rel, err = stream.NewReleaser(st, mech, d.led, stream.ReleaserConfig{
			Interval: cfg.streamTick,
			Seed:     seed,
			History:  cfg.streamHistory,
			Eps:      cfg.streamEps,
			Delta:    cfg.streamDelta,
		})
		if err != nil {
			return nil, err
		}
		opts = append(opts, wire.WithStream(st, d.rel))
		d.stopStream = d.rel.Start(func(err error) { logger.Printf("stream release: %v", err) })
		logger.Printf("streaming ingestion on: %v window over ≤%d users × %d events, release every %v at radius %vm, (ε=%v, δ=%v) each",
			cfg.streamWindow, cfg.historyUsers, cfg.streamPerUser, d.rel.Config().Interval, st.Config().Radius, cfg.streamEps, cfg.streamDelta)
	}
	d.srv = wire.NewLBSServer(city.M(), opts...)
	return d, nil
}

// stopStreamAndCloseLedger is the daemon's shutdown tail. The stream
// stop function blocks until the release loop exits and then publishes
// one final windowed release — charging every window still in flight to
// the budget ledger — so it must complete before the ledger writes its
// closing snapshot, or the drain would lose those spends. Either
// argument may be nil (subsystem not enabled).
func stopStreamAndCloseLedger(logger *log.Logger, stopStream func(), led *budget.Ledger) {
	if stopStream != nil {
		stopStream()
	}
	if led != nil {
		if err := led.Close(); err != nil {
			logger.Printf("budget ledger close: %v", err)
		}
	}
}

// startEvictLoop periodically retires ledgers idle past ttl, keeping the
// resident account set bounded on long-running daemons. The sweep
// interval is a quarter of the TTL, clamped to [1m, 1h].
func startEvictLoop(ctx context.Context, logger *log.Logger, led *budget.Ledger, ttl time.Duration) {
	interval := ttl / 4
	if interval < time.Minute {
		interval = time.Minute
	}
	if interval > time.Hour {
		interval = time.Hour
	}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if n := led.EvictIdle(); n > 0 {
					logger.Printf("budget: retired %d idle ledgers", n)
				}
			}
		}
	}()
}
