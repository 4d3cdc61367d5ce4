// Command gspd serves a city's geo-information over HTTP: the GSP of the
// paper's LBS architecture. It can host a generated synthetic city or a
// city snapshot produced with the dataset format.
//
// Usage:
//
//	gspd -addr :8080 -city beijing
//	gspd -addr :8080 -load beijing.json   # dataset.CityFile snapshot
//
// Endpoints: GET /v1/stats, /v1/query?x=&y=&r=, /v1/freq?x=&y=&r=,
// POST /v1/query/batch and /v1/freq/batch (JSON {"items":[{x,y,r}...]}
// with per-item results), plus the operational /v1/metrics, /healthz,
// and /readyz. The Freq cache's hit/miss/eviction counters are exported
// through /v1/metrics.
//
// With -auth-keys every API request must carry an HMAC-SHA256 signature
// (X-Auth header) from a provisioned principal; the operational
// endpoints stay unsigned. Keys are given inline ("alice=<hexkey>,...")
// or via @file, one principal=hexkey per line.
//
// With -store-dir the daemon keeps a disk-backed tier for the freq
// cache: on boot it warm-starts from <dir>/freqstore.bin (validated
// against the serving city — a stale or corrupt snapshot is rejected and
// logged, never trusted), and it snapshots the -store-top hottest
// entries every -store-interval and again at shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"poiagg/internal/citygen"
	"poiagg/internal/dataset"
	"poiagg/internal/gsp"
	"poiagg/internal/obs"
	"poiagg/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gspd:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set.
type config struct {
	server        *wire.ServerFlags
	cityName      string
	seed          uint64
	load          string
	maxRadius     float64
	storeDir      string
	storeTop      int
	storeInterval time.Duration
}

// declareFlags declares gspd's flags on fs.
func declareFlags(fs *flag.FlagSet) *config {
	cfg := &config{server: wire.DeclareServerFlags(fs, ":8080")}
	fs.StringVar(&cfg.cityName, "city", "beijing", "synthetic city preset: beijing or nyc")
	fs.Uint64Var(&cfg.seed, "seed", 1, "generation seed")
	fs.StringVar(&cfg.load, "load", "", "load a city snapshot (dataset JSON) instead of generating")
	fs.Float64Var(&cfg.maxRadius, "max-radius", 10_000, "maximum accepted query radius in meters")
	fs.StringVar(&cfg.storeDir, "store-dir", "", "directory for the disk-backed freq store; warm-starts the cache on boot and snapshots the hottest entries on a cadence and at shutdown (empty disables)")
	fs.IntVar(&cfg.storeTop, "store-top", 4096, "freq store: snapshot at most this many hottest cache entries")
	fs.DurationVar(&cfg.storeInterval, "store-interval", 5*time.Minute, "freq store: snapshot cadence (0 snapshots only at shutdown)")
	return cfg
}

func run(args []string) error {
	fs := flag.NewFlagSet("gspd", flag.ContinueOnError)
	cfg := declareFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	city, err := buildCity(cfg.load, cfg.cityName, cfg.seed)
	if err != nil {
		return err
	}
	svc := gsp.NewService(city, 1<<18)
	logger := log.New(os.Stderr, "gspd ", log.LstdFlags)

	var storePath string
	if cfg.storeDir != "" {
		if err := os.MkdirAll(cfg.storeDir, 0o755); err != nil {
			return fmt.Errorf("create store dir: %w", err)
		}
		storePath = gsp.StorePath(cfg.storeDir)
		// A rejected snapshot (stale city build, corruption) is a cold
		// start, not a fatal error: log it and keep serving.
		if n, err := svc.WarmStart(storePath); err != nil {
			logger.Printf("freq store: rejected %s: %v (cold start)", storePath, err)
		} else if n > 0 {
			logger.Printf("freq store: warm start with %d entries from %s", n, storePath)
		}
	}
	opts, err := cfg.server.Options(logger)
	if err != nil {
		return err
	}
	srv := wire.NewGSPServer(svc, append(opts, wire.WithMaxRadius(cfg.maxRadius))...)
	svc.ExportMetrics(srv.Metrics())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	saveStore := func(when string) {
		if storePath == "" {
			return
		}
		if n, err := svc.SaveStore(storePath, cfg.storeTop); err != nil {
			logger.Printf("freq store: snapshot (%s) failed: %v", when, err)
		} else {
			logger.Printf("freq store: snapshot (%s): %d entries to %s", when, n, storePath)
		}
	}
	if storePath != "" && cfg.storeInterval > 0 {
		go func() {
			tick := time.NewTicker(cfg.storeInterval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					saveStore("periodic")
				}
			}
		}()
	}

	logger.Printf("serving %s (%d POIs, %d types) on %s (metrics at %s)",
		city.Name, city.NumPOIs(), city.M(), cfg.server.Addr, obs.PathMetrics)
	err = srv.ListenAndServe(ctx, cfg.server.Addr)
	if ctx.Err() != nil {
		// Snapshot after the shutdown so the hit counts of the final
		// in-flight requests make it into the ranking.
		saveStore("shutdown")
	}
	return err
}

func buildCity(load, cityName string, seed uint64) (*gsp.City, error) {
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.LoadCity(f)
	}
	var p citygen.Params
	switch cityName {
	case "beijing":
		p = citygen.Beijing(seed)
	case "nyc":
		p = citygen.NewYork(seed)
	default:
		return nil, fmt.Errorf("unknown city %q (want beijing or nyc)", cityName)
	}
	c, err := citygen.Generate(p)
	if err != nil {
		return nil, err
	}
	return c.City, nil
}
