package defense

import (
	"errors"
	"slices"
	"testing"

	"poiagg/internal/attack"
	"poiagg/internal/dp"
	"poiagg/internal/poi"
	"poiagg/internal/rng"
	"poiagg/internal/stats"
)

func TestDPReleaseLaplaceVariant(t *testing.T) {
	city, svc, pop := fixture(t)
	const r = 1500.0
	locs := city.RandomLocations(60, 21)
	cfg := DefaultDPReleaseConfig()
	cfg.Mech = MechLaplace
	cfg.Eps = 0.5
	mech, err := NewDPRelease(svc, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(22)
	protectedSucc := 0
	var js []float64
	for _, l := range locs {
		f, err := mech.Release(src, l, r)
		if err != nil {
			t.Fatal(err)
		}
		if attack.Region(svc, f, r).Covers(l, r) {
			protectedSucc++
		}
		js = append(js, stats.Jaccard(svc.Freq(l, r).TopK(10), f.TopK(10)))
	}
	if float64(protectedSucc) > 0.2*float64(len(locs)) {
		t.Errorf("Laplace variant left %d/%d successes", protectedSucc, len(locs))
	}
	if m := stats.Mean(js); m < 0.2 {
		t.Errorf("Laplace variant destroyed all utility: Jaccard %v", m)
	}
}

func TestDPReleaseLaplaceValidation(t *testing.T) {
	_, svc, pop := fixture(t)
	cfg := DefaultDPReleaseConfig()
	cfg.Mech = MechLaplace
	cfg.Eps = 0
	if _, err := NewDPRelease(svc, pop, cfg); err == nil {
		t.Error("eps=0 accepted for Laplace")
	}
	cfg = DefaultDPReleaseConfig()
	cfg.Mech = NoiseMechanism(99)
	if _, err := NewDPRelease(svc, pop, cfg); err == nil {
		t.Error("unknown mechanism accepted")
	}
	// Laplace ignores delta entirely: delta=0 must be fine.
	cfg = DefaultDPReleaseConfig()
	cfg.Mech = MechLaplace
	cfg.Delta = 0
	if _, err := NewDPRelease(svc, pop, cfg); err != nil {
		t.Errorf("Laplace with delta=0 rejected: %v", err)
	}
}

func TestDPReleaseZeroMechDefaultsToGaussian(t *testing.T) {
	_, svc, pop := fixture(t)
	cfg := DefaultDPReleaseConfig()
	cfg.Mech = 0
	mech, err := NewDPRelease(svc, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mech.Config().Mech != MechGaussian {
		t.Errorf("Mech = %d", mech.Config().Mech)
	}
}

func TestReleaseWithAccountant(t *testing.T) {
	city, svc, pop := fixture(t)
	cfg := DefaultDPReleaseConfig()
	cfg.Eps = 0.5
	cfg.Delta = 0.05
	mech, err := NewDPRelease(svc, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := dp.NewAccountant(1.0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(23)
	l := city.RandomLocations(1, 24)[0]
	// Budget 1.0/0.2 allows exactly two (0.5, 0.05) releases.
	for i := 0; i < 2; i++ {
		if _, err := mech.ReleaseWithAccountant(src, acct, l, 1000); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	_, err = mech.ReleaseWithAccountant(src, acct, l, 1000)
	if !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Errorf("third release: %v", err)
	}
	if acct.Releases() != 2 {
		t.Errorf("Releases = %d", acct.Releases())
	}
	if _, err := mech.ReleaseWithAccountant(src, nil, l, 1000); err == nil {
		t.Error("nil accountant accepted")
	}
}

func TestReleaseWithAccountantLaplaceSpendsNoDelta(t *testing.T) {
	city, svc, pop := fixture(t)
	cfg := DefaultDPReleaseConfig()
	cfg.Mech = MechLaplace
	cfg.Eps = 0.25
	mech, err := NewDPRelease(svc, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := dp.NewAccountant(1.0, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(25)
	l := city.RandomLocations(1, 26)[0]
	for i := 0; i < 4; i++ {
		if _, err := mech.ReleaseWithAccountant(src, acct, l, 1000); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	if _, delta := acct.Spent(); delta != 0 {
		t.Errorf("Laplace releases spent delta %v", delta)
	}
}

// BenchmarkDPGaussianVsLaplace compares the two noise mechanisms of the
// DP release end to end.
func BenchmarkDPGaussianVsLaplace(b *testing.B) {
	city, svc, pop := fixture(b)
	l := city.RandomLocations(1, 27)[0]
	for _, tc := range []struct {
		name string
		mech NoiseMechanism
	}{
		{"gaussian", MechGaussian},
		{"laplace", MechLaplace},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultDPReleaseConfig()
			cfg.Mech = tc.mech
			mech, err := NewDPRelease(svc, pop, cfg)
			if err != nil {
				b.Fatal(err)
			}
			src := rng.New(28)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mech.Release(src, l, 2000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDPReleaseVectorOnly pins the nil-population mechanism the stream
// releaser uses: ReleaseVectors draws exactly what a mechanism with a
// population draws, while Release and ReleaseWithAccountant refuse,
// and the refusal spends no budget.
func TestDPReleaseVectorOnly(t *testing.T) {
	city, svc, pop := fixture(t)
	cfg := DefaultDPReleaseConfig()
	vecOnly, err := NewDPRelease(svc, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewDPRelease(svc, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var vecs []poi.FreqVector
	for _, l := range city.RandomLocations(5, 31) {
		vecs = append(vecs, svc.Freq(l, 1200))
	}
	got, err := vecOnly.ReleaseVectors(rng.New(32), vecs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.ReleaseVectors(rng.New(32), vecs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("vector-only ReleaseVectors = %v, want %v", got, want)
	}
	l := city.RandomLocations(1, 33)[0]
	if _, err := vecOnly.Release(rng.New(34), l, 1000); err == nil {
		t.Error("Release without a population succeeded")
	}
	acct, err := dp.NewAccountant(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vecOnly.ReleaseWithAccountant(rng.New(35), acct, l, 1000); err == nil {
		t.Error("ReleaseWithAccountant without a population succeeded")
	}
	if acct.Releases() != 0 {
		t.Errorf("refused release spent budget: %d releases charged", acct.Releases())
	}
}
