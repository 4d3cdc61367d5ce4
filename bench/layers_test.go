package main

import (
	"os"
	"testing"
	"time"
)

// TestAttributeFixture charges a canned `go tool pprof -traces` output from
// a gspd profile through daemonRules.
func TestAttributeFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stacks, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		cpu   time.Duration
		layer string
	}{
		{10 * time.Millisecond, "gc"},     // a GC worker's own goroutine
		{160 * time.Millisecond, "log"},   // write(2) under the request log
		{1350 * time.Millisecond, "net"},  // write(2) under a socket
		{170 * time.Millisecond, "sched"}, // epoll_wait under the scheduler
		{10 * time.Millisecond, "alloc"},  // malloc under signature checking
		{10 * time.Millisecond, "respcache"},
		{10 * time.Millisecond, "auth"}, // strings.Join under canonicalString
		{10 * time.Millisecond, "alloc"},
		{10 * time.Millisecond, "sched"},
		{10 * time.Millisecond, "other"}, // no Go frame at all
	}
	if len(stacks) != len(want) {
		t.Fatalf("parsed %d stacks, want %d", len(stacks), len(want))
	}
	var total time.Duration
	for i, st := range stacks {
		if st.cpu != want[i].cpu {
			t.Errorf("stack %d: cpu %v, want %v", i, st.cpu, want[i].cpu)
		}
		if got := layerOf(st.frames, daemonRules); got != want[i].layer {
			t.Errorf("stack %d (%s): layer %s, want %s", i, st.frames[0], got, want[i].layer)
		}
		total += st.cpu
	}
	split := attribute(stacks, daemonRules)
	samples := 0
	for _, lt := range split {
		samples += lt.samples
	}
	if split.total() != total || samples != int(total/profilePeriod) {
		t.Errorf("charged %v in %d samples, profile holds %v", split.total(), samples, total)
	}
	if stacks[1].frames[4] != "syscall.Write" {
		t.Errorf("frame %q kept its (inline) suffix", stacks[1].frames[4])
	}
}

// TestLayerOfInnermostFirst checks that the innermost matching frame
// decides, not the first rule in the list.
func TestLayerOfInnermostFirst(t *testing.T) {
	frames := []string{
		"poiagg/internal/index.(*Grid).CountTypes",
		"poiagg/internal/gsp.(*Service).computeInto",
		"poiagg/internal/wire.(*authenticator).verifyRequest",
	}
	if got := layerOf(frames, daemonRules); got != "index" {
		t.Errorf("layer %s, want index", got)
	}
	if got := layerOf(frames[1:], daemonRules); got != "gsp" {
		t.Errorf("layer %s, want gsp", got)
	}
}
