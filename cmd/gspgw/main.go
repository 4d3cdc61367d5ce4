// Command gspgw is the cluster gateway in front of a fleet of gspd
// shards: it serves the same GSP endpoint surface — GET /v1/stats,
// /v1/pois, /v1/query, /v1/freq, POST /v1/freq/batch and
// /v1/query/batch — and routes each query to the consistent-hash owner
// of its (city × grid cell). Batch requests are split per shard, fanned
// out concurrently, and merged preserving input order with per-item
// errors. Every shard must hold the same city (same snapshot or same
// -city/-seed), so the fleet is byte-identical to one gspd while each
// shard's cache holds only its slice of the keyspace.
//
// Shard health is driven by each shard's /readyz: dead shards are
// evicted from the ring and recovered ones re-added, and the gateway's
// own /readyz fails only when no shard is healthy. /v1/metrics exports
// the cluster.* gauges (per-shard inflight/errors/health, fanout
// latency, evictions/restores, replica and membership counters).
//
// With -replicas N > 1 each single GET races up to N ring successors
// first-wins, hedged after -hedge-delay. Membership is dynamic: the
// /v1/cluster/peers admin surface joins shards (after a readiness probe
// and a byte-for-byte check that the shard serves the fleet's city) and
// retires them without a restart; under -auth-keys only
// -admin-principal may mutate.
//
// Usage:
//
//	gspgw -addr :8079 -peers http://s0:8080,http://s1:8080,http://s2:8080
//
// The gateway mirrors gspd's hardening flags: -admit-* for admission
// control, -max-body, and -auth-keys to require signed client requests.
// Against auth-enabled shards, -peer-auth-key gives the gateway its own
// signing identity (provision the same principal on every shard).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"poiagg/internal/cluster"
	"poiagg/internal/obs"
	"poiagg/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gspgw:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set, separated from run so tests can cover
// the flag → gateway wiring without binding sockets.
type config struct {
	server        *wire.ServerFlags
	peers         []string
	vnodes        int
	cellSize      float64
	cityLabel     string
	probeInterval time.Duration
	probeTimeout  time.Duration
	replicas      int
	hedgeDelay    time.Duration
	adminPr       string
	peerRetries   int
	peerTimeout   time.Duration
	peerAuthKey   string
	maxRadius     float64
	maxBatch      int
}

// declareFlags declares gspgw's flags on fs; -peers lands in *peers
// until parseConfig splits it.
func declareFlags(fs *flag.FlagSet) (*config, *string) {
	cfg := &config{server: wire.DeclareServerFlags(fs, ":8079")}
	peers := fs.String("peers", "", "comma-separated gspd shard base URLs (required)")
	fs.IntVar(&cfg.vnodes, "vnodes", cluster.DefaultVirtualNodes, "virtual nodes per shard on the hash ring")
	fs.Float64Var(&cfg.cellSize, "cell", cluster.DefaultCellSize, "routing grid cell size in meters")
	fs.StringVar(&cfg.cityLabel, "city-label", "", "city label mixed into the routing keyspace (isolates co-hosted cities)")
	fs.DurationVar(&cfg.probeInterval, "probe-interval", wire.DefaultProbeInterval, "shard /readyz probe cadence")
	fs.DurationVar(&cfg.probeTimeout, "probe-timeout", wire.DefaultProbeTimeout, "per-probe timeout")
	fs.IntVar(&cfg.replicas, "replicas", 1, "replicas raced per single GET, first answer wins (1 = primary only)")
	fs.DurationVar(&cfg.hedgeDelay, "hedge-delay", wire.DefaultHedgeDelay, "wait before hedging a replicated GET to the next replica")
	fs.StringVar(&cfg.adminPr, "admin-principal", "", "principal allowed to mutate /v1/cluster/peers when -auth-keys is set (unset = mutations refused)")
	fs.IntVar(&cfg.peerRetries, "peer-retries", 2, "retry budget per shard call")
	fs.DurationVar(&cfg.peerTimeout, "peer-timeout", 5*time.Second, "per-attempt timeout for shard calls")
	fs.StringVar(&cfg.peerAuthKey, "peer-auth-key", "", "principal=hexkey the gateway signs shard calls with (for auth-enabled shards)")
	fs.Float64Var(&cfg.maxRadius, "max-radius", 10_000, "maximum accepted query radius in meters (must match the shards)")
	fs.IntVar(&cfg.maxBatch, "max-batch", wire.DefaultMaxBatch, "maximum items per batch request (must match the shards)")
	return cfg, peers
}

func parseConfig(args []string) (*config, error) {
	fs := flag.NewFlagSet("gspgw", flag.ContinueOnError)
	cfg, peers := declareFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.peers = append(cfg.peers, p)
		}
	}
	if len(cfg.peers) == 0 {
		return nil, errors.New("-peers is required (comma-separated shard URLs)")
	}
	return cfg, nil
}

// buildGateway assembles the gateway from a config.
func buildGateway(cfg *config, logger *log.Logger) (*wire.ClusterGateway, error) {
	opts, err := cfg.server.Options(logger)
	if err != nil {
		return nil, err
	}
	opts = append(opts,
		wire.WithVirtualNodes(cfg.vnodes),
		wire.WithCellSize(cfg.cellSize),
		wire.WithCityLabel(cfg.cityLabel),
		wire.WithProbeInterval(cfg.probeInterval),
		wire.WithProbeTimeout(cfg.probeTimeout),
		wire.WithReplicas(cfg.replicas),
		wire.WithHedgeDelay(cfg.hedgeDelay),
		wire.WithClusterAdmin(cfg.adminPr),
		wire.WithMaxRadius(cfg.maxRadius),
		wire.WithMaxBatch(cfg.maxBatch),
	)
	peerOpts := []wire.ClientOption{
		wire.WithRetries(cfg.peerRetries),
		wire.WithRequestTimeout(cfg.peerTimeout),
	}
	if cfg.peerAuthKey != "" {
		principal, key, err := wire.ParseSigningKey(cfg.peerAuthKey)
		if err != nil {
			return nil, err
		}
		peerOpts = append(peerOpts, wire.WithSigningKey(principal, key))
		logger.Printf("signing shard calls as %q", principal)
	}
	return wire.NewClusterGateway(cfg.peers, append(opts, wire.WithPeerClientOptions(peerOpts...))...)
}

func run(args []string) error {
	cfg, err := parseConfig(args)
	if err != nil {
		return err
	}
	logger := log.New(os.Stderr, "gspgw ", log.LstdFlags)
	gw, err := buildGateway(cfg, logger)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	gw.StartProber(ctx)
	logger.Printf("routing %d shards on %s (probe every %v, metrics at %s)",
		len(cfg.peers), cfg.server.Addr, cfg.probeInterval, obs.PathMetrics)
	return gw.ListenAndServe(ctx, cfg.server.Addr)
}
