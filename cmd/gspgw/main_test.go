package main

import (
	"context"
	"flag"
	"io"
	"log"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"poiagg/internal/citygen"
	"poiagg/internal/gsp"
	"poiagg/internal/wire"
)

func TestParseConfig(t *testing.T) {
	cfg, err := parseConfig([]string{
		"-peers", "http://a:8080, http://b:8080,,http://c:8080",
		"-vnodes", "64",
		"-cell", "250",
		"-city-label", "beijing",
		"-probe-interval", "500ms",
		"-peer-auth-key", "gw=" + strings.Repeat("ab", 32),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.peers) != 3 || cfg.peers[1] != "http://b:8080" {
		t.Errorf("peers = %v", cfg.peers)
	}
	if cfg.vnodes != 64 || cfg.cellSize != 250 || cfg.cityLabel != "beijing" {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.probeInterval != 500*time.Millisecond {
		t.Errorf("probeInterval = %v", cfg.probeInterval)
	}
	if cfg.replicas != 1 || cfg.hedgeDelay != wire.DefaultHedgeDelay {
		t.Errorf("replica defaults: %+v", cfg)
	}
}

func TestParseConfigReplicaFlags(t *testing.T) {
	cfg, err := parseConfig([]string{
		"-peers", "http://a:8080",
		"-replicas", "3",
		"-hedge-delay", "25ms",
		"-admin-principal", "ops",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.replicas != 3 || cfg.hedgeDelay != 25*time.Millisecond || cfg.adminPr != "ops" {
		t.Errorf("cfg = %+v", cfg)
	}
}

func TestParseConfigRequiresPeers(t *testing.T) {
	if _, err := parseConfig(nil); err == nil {
		t.Fatal("empty -peers accepted")
	}
	if _, err := parseConfig([]string{"-peers", " , "}); err == nil {
		t.Fatal("blank -peers accepted")
	}
}

func TestBuildGatewayRejectsBadPeerKey(t *testing.T) {
	cfg, err := parseConfig([]string{"-peers", "http://a:8080", "-peer-auth-key", "not-a-pair"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildGateway(cfg, log.New(io.Discard, "", 0)); err == nil {
		t.Fatal("malformed -peer-auth-key accepted")
	}
}

// TestGatewayEndToEnd drives the flag → gateway wiring against two real
// in-process shards: queries route, probes run, metrics export.
func TestGatewayEndToEnd(t *testing.T) {
	p := citygen.Beijing(7)
	p.NumPOIs = 400
	city, err := citygen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	svc := gsp.NewService(city.City, 1<<12)
	quiet := wire.WithLogger(log.New(io.Discard, "", 0))
	s0 := httptest.NewServer(wire.NewGSPServer(svc, quiet))
	defer s0.Close()
	s1 := httptest.NewServer(wire.NewGSPServer(svc, quiet))
	defer s1.Close()

	cfg, err := parseConfig([]string{
		"-peers", s0.URL + "," + s1.URL,
		"-probe-timeout", "200ms",
		"-replicas", "2",
		"-hedge-delay", "1ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := buildGateway(cfg, log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	defer ts.Close()

	client := wire.NewGSPClient(ts.URL, ts.Client())
	ctx := context.Background()
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumPOIs != city.NumPOIs() {
		t.Errorf("stats through gateway: %+v", stats)
	}
	for _, l := range city.RandomLocations(8, 3) {
		freq, err := client.Freq(ctx, l, 800)
		if err != nil {
			t.Fatal(err)
		}
		if !freq.Equal(svc.Freq(l, 800)) {
			t.Fatalf("gateway Freq diverges at %v", l)
		}
	}

	gw.ProbeOnce(ctx)
	snap := gw.Metrics().Snapshot()
	if got := snap.Counters[wire.MetricClusterPeers]; got != 2 {
		t.Errorf("cluster.peers = %d, want 2", got)
	}
	if got := snap.Counters[wire.MetricClusterProbesOK]; got != 2 {
		t.Errorf("cluster.probes.ok = %d, want 2", got)
	}
}

// TestFlagSurface pins every flag's name and default: scripts and the
// benchmark start gspgw with these flags, so moving a flag between files
// must not rename it or change its default.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr=:8079",
		"admin-principal=",
		"admit-limit=0",
		"admit-queue=128",
		"admit-timeout=500ms",
		"auth-keys=",
		"auth-window=2m0s",
		"cell=500",
		"city-label=",
		"hedge-delay=50ms",
		"max-batch=256",
		"max-body=1048576",
		"max-radius=10000",
		"peer-auth-key=",
		"peer-retries=2",
		"peer-timeout=5s",
		"peers=",
		"pprof=false",
		"probe-interval=2s",
		"probe-timeout=1s",
		"replicas=1",
		"stats-interval=1m0s",
		"vnodes=128",
	}
	fs := flag.NewFlagSet("gspgw", flag.ContinueOnError)
	declareFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if !slices.Equal(got, want) {
		t.Errorf("flags changed:\ngot  %q\nwant %q", got, want)
	}
}
