package hash64_test

import (
	"testing"

	"poiagg/internal/cluster"
	"poiagg/internal/hash64"
	"poiagg/internal/rng"
)

// TestGolden pins values that decide placement or seed noise, as they
// were before the hashes moved into this package: the ring positions
// that decide which shard owns a cell, the budget ledger's principal
// hash, and the seeds rng derives for split streams.
func TestGolden(t *testing.T) {
	r := rng.New(1).Split(7)
	for _, tc := range []struct {
		name      string
		got, want uint64
	}{
		{`cluster.Key("", 0, 0)`, cluster.Key("", 0, 0), 0x68752350ae1d483f},
		{`cluster.Key("beijing", 12, -7)`, cluster.Key("beijing", 12, -7), 0xf3db941121ffafd4},
		{`String("")`, hash64.String(""), 0xf52a15e9a9b5e89b},
		{`String("alice")`, hash64.String("alice"), 0xc5d1556d66774a5c},
		{`String("tenant-0042")`, hash64.String("tenant-0042"), 0xcd08c0e90017881},
		{"rng.New(1).Split(7) draw 1", r.Uint64(), 0x84dd962ff306b5a0},
		{"rng.New(1).Split(7) draw 2", r.Uint64(), 0x8a046ad086579ef1},
		{"rng.New(1).Split(7) draw 3", r.Uint64(), 0xc9e7b1cdba848700},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %#x, want %#x", tc.name, tc.got, tc.want)
		}
	}

	ring := cluster.New(16)
	for _, p := range []string{"http://a:1", "http://b:2", "http://c:3"} {
		ring.Add(p)
	}
	owners := ""
	for cx := -2; cx < 3; cx++ {
		for cy := 0; cy < 3; cy++ {
			o, _ := ring.Owner(cluster.Key("nyc", cx, cy))
			owners += o[7:8]
		}
	}
	if want := "cccacbbcaccccba"; owners != want {
		t.Errorf("ring owners of 15 nyc cells = %s, want %s", owners, want)
	}
}
