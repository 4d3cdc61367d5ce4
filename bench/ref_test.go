package main

import (
	"testing"
	"time"
)

// TestRefMeter runs the reference meter briefly: its exchanges must parse,
// and mark must return a plausible CPU time per exchange and start a new
// interval.
func TestRefMeter(t *testing.T) {
	m, err := startRefMeter()
	if err != nil {
		t.Fatal(err)
	}
	defer m.stopMeter()
	time.Sleep(30 * time.Millisecond)
	for range 2 {
		d, err := m.mark()
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 || d > 10*time.Millisecond {
			t.Errorf("an exchange took %v of CPU", d)
		}
	}
	if m.used() <= 0 {
		t.Error("the meter's thread used no CPU")
	}
	if got := atRef(100, refNominal/2); got != 200 {
		t.Errorf("100 measured at twice the reference speed scales to %v, want 200", got)
	}
}
