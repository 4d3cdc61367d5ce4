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
// The freq cache lives in memory only: every vector in it derives from
// the city, so a restarted daemon refills it from its first requests.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

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
	server    *wire.ServerFlags
	cityName  string
	seed      uint64
	load      string
	maxRadius float64
}

// declareFlags declares gspd's flags on fs.
func declareFlags(fs *flag.FlagSet) *config {
	cfg := &config{server: wire.DeclareServerFlags(fs, ":8080")}
	fs.StringVar(&cfg.cityName, "city", "beijing", "synthetic city preset: beijing or nyc")
	fs.Uint64Var(&cfg.seed, "seed", 1, "generation seed")
	fs.StringVar(&cfg.load, "load", "", "load a city snapshot (dataset JSON) instead of generating")
	fs.Float64Var(&cfg.maxRadius, "max-radius", 10_000, "maximum accepted query radius in meters")
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

	opts, err := cfg.server.Options(logger)
	if err != nil {
		return err
	}
	srv := wire.NewGSPServer(svc, append(opts, wire.WithMaxRadius(cfg.maxRadius))...)
	svc.ExportMetrics(srv.Metrics())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Printf("serving %s (%d POIs, %d types) on %s (metrics at %s)",
		city.Name, city.NumPOIs(), city.M(), cfg.server.Addr, obs.PathMetrics)
	return srv.ListenAndServe(ctx, cfg.server.Addr)
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
