package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestLoadgenInprocessSmoke runs the full in-process stack briefly and
// checks the report is well-formed: progress was made, nothing failed
// unexpectedly, and every requested target saw traffic.
func TestLoadgenInprocessSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	err := run([]string{
		"-inprocess", "-quiet", "-assert",
		"-duration", "300ms", "-conc", "4", "-batch", "4",
		"-targets", "freq,batch,release",
		"-name", "smoke",
		"-out", out,
	}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, out)
	if rep.Name != "smoke" {
		t.Errorf("name = %q", rep.Name)
	}
	if rep.OK == 0 {
		t.Error("ok = 0, want progress")
	}
	if rep.BadRequest != 0 || rep.TransportErrors != 0 {
		t.Errorf("unexpected errors: badRequest=%d transport=%d", rep.BadRequest, rep.TransportErrors)
	}
	for _, tgt := range []string{"freq", "batch", "release"} {
		pt, ok := rep.PerTarget[tgt]
		if !ok || pt.Total == 0 {
			t.Errorf("target %q saw no traffic: %+v", tgt, pt)
		}
	}
	if rep.ThroughputRPS <= 0 {
		t.Errorf("throughput = %v", rep.ThroughputRPS)
	}
	if rep.Latency.Count != rep.Total {
		t.Errorf("latency count %d != total %d", rep.Latency.Count, rep.Total)
	}
}

// TestLoadgenShedsUnderTinyLimit saturates an admission limit of 1 with
// no queue at closed-loop concurrency 16: sheds must appear, be counted
// as shed503 (not transport errors), and some requests still succeed.
func TestLoadgenShedsUnderTinyLimit(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	err := run([]string{
		"-inprocess", "-quiet",
		"-duration", "400ms", "-conc", "16",
		"-targets", "release", "-audit-cost", "5ms",
		"-admit-limit", "1", "-admit-queue", "0", "-admit-timeout", "0s",
		"-out", out,
	}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, out)
	if rep.Shed503 == 0 {
		t.Error("shed503 = 0 at concurrency 16 against limit 1")
	}
	if rep.OK == 0 {
		t.Error("ok = 0; admission must not starve everyone")
	}
	if rep.TransportErrors != 0 {
		t.Errorf("transportErrors = %d; sheds must classify as 503s", rep.TransportErrors)
	}
	if rep.OK+rep.Shed503+rep.Denied429+rep.BadRequest != rep.Total {
		t.Errorf("outcome counts do not sum to total: %+v", rep)
	}
}

// TestLoadgenOpenLoop drives the fixed-schedule mode and checks the
// arrival pacing produced roughly rate*duration requests, not a
// closed-loop flood.
func TestLoadgenOpenLoop(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	err := run([]string{
		"-inprocess", "-quiet", "-assert",
		"-duration", "500ms", "-rate", "100", "-conc", "8",
		"-targets", "freq",
		"-out", out,
	}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, out)
	// ~50 arrivals scheduled; allow wide slack for CI timers but reject
	// a closed-loop-scale flood (thousands).
	if rep.Total == 0 || rep.Total > 120 {
		t.Errorf("total = %d, want paced arrivals near 50", rep.Total)
	}
}

// TestLoadgenClusterMode drives the in-process sharded stack: 3 GSP
// shards behind a gateway must serve the same load the single node
// does, with the shard count echoed in the report.
func TestLoadgenClusterMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	err := run([]string{
		"-inprocess", "-quiet", "-assert", "-cluster", "3",
		"-duration", "300ms", "-conc", "4", "-batch", "8",
		"-targets", "freq,batch",
		"-out", out,
	}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, out)
	if rep.Config.ClusterShards != 3 {
		t.Errorf("clusterShards = %d, want 3", rep.Config.ClusterShards)
	}
	if rep.OK == 0 {
		t.Error("ok = 0, want progress through the gateway")
	}
	if rep.BadRequest != 0 || rep.TransportErrors != 0 {
		t.Errorf("unexpected errors: badRequest=%d transport=%d", rep.BadRequest, rep.TransportErrors)
	}
	for _, tgt := range []string{"freq", "batch"} {
		if pt := rep.PerTarget[tgt]; pt.Total == 0 || pt.OK == 0 {
			t.Errorf("target %q made no progress through the gateway: %+v", tgt, pt)
		}
	}
}

// TestLoadgenStreamProfile drives the open-loop ingest target with
// rotating user cohorts against the in-process stream subsystem: the
// report must carry a stream block showing accepted events, eviction
// churn from the cohort floods, window occupancy at or under the hard
// memory cap, and published windowed releases.
func TestLoadgenStreamProfile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	err := run([]string{
		"-inprocess", "-quiet", "-assert",
		"-duration", "600ms", "-rate", "200", "-conc", "8",
		"-targets", "ingest", "-profile", "stream",
		"-stream-users", "32", "-stream-batch", "4",
		"-stream-burst", "150ms", "-stream-tick", "100ms",
		"-out", out,
	}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, out)
	if rep.Config.Profile != "stream" || rep.Config.StreamUsers != 32 || rep.Config.StreamBatch != 4 {
		t.Errorf("config echo wrong: %+v", rep.Config)
	}
	if pt := rep.PerTarget["ingest"]; pt.Total == 0 || pt.OK == 0 {
		t.Errorf("ingest target made no progress: %+v", pt)
	}
	s := rep.Stream
	if s == nil {
		t.Fatal("report has no stream block for an in-process ingest run")
	}
	if s.EventsAccepted == 0 {
		t.Error("no events entered the window")
	}
	if s.WindowEventCap == 0 || s.WindowEvents > s.WindowEventCap {
		t.Errorf("window occupancy %d over cap %d", s.WindowEvents, s.WindowEventCap)
	}
	if s.UsersEvicted == 0 {
		t.Error("cohort rotation produced no eviction churn")
	}
	if s.Releases < 2 {
		t.Errorf("releases = %d, want periodic ticks plus the final flush", s.Releases)
	}
}

// TestLoadgenMembershipChurnProfile runs the three-phase fleet
// transition: the report must show the victim retired, a cold joiner
// admitted, and progress in every phase with no transport errors across
// either transition.
func TestLoadgenMembershipChurnProfile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	err := run([]string{
		"-inprocess", "-quiet", "-assert", "-cluster", "3",
		"-duration", "1500ms", "-conc", "4", "-timeout", "5s",
		"-targets", "freq", "-profile", "membership-churn",
		"-out", out,
	}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, out)
	if rep.Config.Profile != "membership-churn" || rep.Config.ClusterShards != 3 {
		t.Errorf("config echo wrong: %+v", rep.Config)
	}
	c := rep.Churn
	if c == nil {
		t.Fatal("report has no churn block for a membership-churn run")
	}
	if c.Joins != 1 || c.Leaves != 1 {
		t.Errorf("joins=%d leaves=%d, want exactly one of each", c.Joins, c.Leaves)
	}
	if c.Victim == "" || c.Joiner == "" || c.Victim == c.Joiner {
		t.Errorf("victim=%q joiner=%q", c.Victim, c.Joiner)
	}
	if len(c.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(c.Phases))
	}
	for i, p := range c.Phases {
		if p.Name != churnPhaseNames[i] {
			t.Errorf("phase %d named %q, want %q", i, p.Name, churnPhaseNames[i])
		}
		if p.OK == 0 {
			t.Errorf("phase %q made no progress", p.Name)
		}
		if p.TransportErrors != 0 {
			t.Errorf("phase %q saw %d transport errors across the transition", p.Name, p.TransportErrors)
		}
		if p.HitRate <= 0 || p.HitRate > 1 {
			t.Errorf("phase %q hit rate %v out of range", p.Name, p.HitRate)
		}
	}
	if rep.GSP != nil {
		t.Error("churn runs report per-shard caches in the churn block, not a GSP block")
	}
}

func TestLoadgenFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-targets", "bogus"},
		{"-targets", ""},
		{"-conc", "0"},
		{"-duration", "0s"},
		{"-targets", "freq"}, // remote mode without -gsp
		{"-targets", "release"},
		{"-targets", "ingest"}, // remote mode without -lbs
		{"-cluster", "2"},      // cluster needs -inprocess
		{"-cluster", "-1"},     // negative fleet
		{"-inprocess", "-profile", "stream", "-targets", "freq"},                             // stream profile needs ingest
		{"-inprocess", "-cluster", "1", "-targets", "freq", "-profile", "membership-churn"},  // churn needs a fleet
		{"-inprocess", "-cluster", "2", "-targets", "batch", "-profile", "membership-churn"}, // churn drives freq
		{"-profile", "membership-churn", "-targets", "freq"},                                 // churn needs -inprocess -cluster
		{"-inprocess", "-targets", "ingest", "-stream-users", "0"},
		{"-inprocess", "-targets", "ingest", "-stream-batch", "0"},
		{"-inprocess", "-targets", "ingest", "-stream-burst", "0s"},
	}
	for _, args := range cases {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted invalid input", args)
		}
	}
}

func readReport(t *testing.T, path string) Report {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}
