package defense

import (
	"errors"
	"fmt"
	"math"

	"poiagg/internal/cloak"
	"poiagg/internal/dp"
	"poiagg/internal/geo"
	"poiagg/internal/gsp"
	"poiagg/internal/poi"
	"poiagg/internal/rng"
)

// NoiseMechanism selects the additive noise of the DP release.
type NoiseMechanism int

// Noise mechanisms.
const (
	// MechGaussian is the paper's mechanism: (ε,δ)-DP Gaussian noise
	// calibrated per Definition 2.
	MechGaussian NoiseMechanism = iota + 1
	// MechLaplace is the pure ε-DP ablation: Laplace(Δ_i/ε) noise per
	// dimension (δ is ignored). Under the paper's neighbouring relation
	// (one dimension of one vector changes) each dimension is its own
	// query, so per-dimension Laplace noise at L1 sensitivity Δ_i yields
	// ε-DP.
	MechLaplace
)

// DPReleaseConfig parameterizes the differentially private release.
type DPReleaseConfig struct {
	// K is the spatial cloaking parameter (number of dummy locations,
	// including the requester; the paper uses 20).
	K int
	// Eps and Delta are the (ε,δ) privacy parameters (the paper sweeps
	// ε in [0.2, 2.0] with δ = 0.2).
	Eps, Delta float64
	// Beta is the distortion budget of the post-processing optimization.
	Beta float64
	// Mech selects Gaussian (default, the paper's choice) or Laplace
	// noise.
	Mech NoiseMechanism
}

// DefaultDPReleaseConfig mirrors the paper's evaluation setting.
func DefaultDPReleaseConfig() DPReleaseConfig {
	return DPReleaseConfig{K: 20, Eps: 1.0, Delta: 0.2, Beta: 0.03, Mech: MechGaussian}
}

// DPRelease is the paper's (ε,δ)-differentially private POI aggregate
// release mechanism (Section V-B):
//
//  1. spatial k-cloaking generates dummy locations d_1..d_k (including
//     the requester's true location);
//  2. the per-type mean of their frequency vectors is released through
//     the Gaussian mechanism — per dimension i,
//     F*_D[i] = (Σ_j F_{d_j,r}[i] + N(0, σ_i²)) / k with
//     σ_i = Δ_i·sqrt(2·ln(1.25/δ))/ε and sensitivity
//     Δ_i = max_j F_{d_j,r}[i];
//  3. the Eq. (9) optimization perturbs the noisy mean under the β
//     distortion budget. By post-processing (the optimization never
//     touches the true vector), the whole pipeline stays
//     (ε,δ)-differentially private.
type DPRelease struct {
	svc     *gsp.Service
	cloaker *cloak.Cloaker
	opt     *OptRelease
	cfg     DPReleaseConfig
}

// errNoPopulation is Release's error on a vector-only mechanism.
var errNoPopulation = errors.New("defense: DPRelease: Release needs a population to cloak in")

// NewDPRelease builds the mechanism over a population for cloaking. A
// nil population builds a vector-only mechanism: ReleaseVectors works,
// and Release, which has no one to cloak among, returns an error.
func NewDPRelease(svc *gsp.Service, pop *cloak.Population, cfg DPReleaseConfig) (*DPRelease, error) {
	if svc == nil {
		return nil, fmt.Errorf("defense: NewDPRelease: nil service")
	}
	if cfg.K < 2 {
		return nil, fmt.Errorf("defense: NewDPRelease: k must be ≥ 2, got %d", cfg.K)
	}
	if cfg.Mech == 0 {
		cfg.Mech = MechGaussian
	}
	switch cfg.Mech {
	case MechGaussian:
		if _, err := dp.GaussianSigma(1, cfg.Eps, cfg.Delta); err != nil {
			return nil, fmt.Errorf("defense: NewDPRelease: %w", err)
		}
	case MechLaplace:
		if cfg.Eps <= 0 {
			return nil, fmt.Errorf("defense: NewDPRelease: epsilon must be positive, got %v", cfg.Eps)
		}
	default:
		return nil, fmt.Errorf("defense: NewDPRelease: unknown mechanism %d", cfg.Mech)
	}
	if cfg.Beta < 0 {
		return nil, fmt.Errorf("defense: NewDPRelease: negative beta %v", cfg.Beta)
	}
	var cl *cloak.Cloaker
	if pop != nil {
		var err error
		if cl, err = cloak.NewCloaker(pop, cfg.K); err != nil {
			return nil, fmt.Errorf("defense: NewDPRelease: %w", err)
		}
	}
	opt, err := NewOptRelease(svc.City())
	if err != nil {
		return nil, fmt.Errorf("defense: NewDPRelease: %w", err)
	}
	return &DPRelease{svc: svc, cloaker: cl, opt: opt, cfg: cfg}, nil
}

// Release produces the protected frequency vector for a user at l with
// query range r.
func (d *DPRelease) Release(src *rng.Source, l geo.Point, r float64) (poi.FreqVector, error) {
	if d.cloaker == nil {
		return nil, errNoPopulation
	}
	dummies := d.cloaker.DummyLocations(l, src)
	m := d.svc.City().M()
	// One scratch vector serves every dummy location (FreqInto, no
	// per-dummy allocation); only the per-dimension sums and max
	// sensitivities survive the aggregation — the individual vectors were
	// discarded immediately anyway.
	sums := make([]int, m)
	senss := make([]int, m)
	scratch := poi.NewFreqVector(m)
	for _, loc := range dummies {
		d.svc.FreqInto(scratch, loc, r)
		for i, v := range scratch {
			sums[i] += v
			if v > senss[i] {
				senss[i] = v
			}
		}
	}
	return d.noiseAndSolve(src, sums, senss, float64(len(dummies)))
}

// noiseAndSolve is the mechanism core shared by Release and
// ReleaseVectors: given per-dimension sums over k member vectors and the
// per-dimension max sensitivities, it draws the configured noise, forms
// the rounded non-negative noisy mean, and runs the Eq. (9)
// post-processing optimization.
func (d *DPRelease) noiseAndSolve(src *rng.Source, sums, senss []int, k float64) (poi.FreqVector, error) {
	m := len(sums)
	noisyMean := poi.NewFreqVector(m)
	for i := 0; i < m; i++ {
		sum := sums[i]
		sens := senss[i]
		var noise float64
		switch d.cfg.Mech {
		case MechLaplace:
			if sens > 0 {
				noise = src.Laplace(0, float64(sens)/d.cfg.Eps)
			}
		default:
			sigma, err := dp.GaussianSigma(float64(sens), d.cfg.Eps, d.cfg.Delta)
			if err != nil {
				return nil, fmt.Errorf("defense: DPRelease: %w", err)
			}
			noise = src.Normal(0, sigma)
		}
		v := (float64(sum) + noise) / k
		n := int(math.Round(v))
		if n < 0 {
			n = 0
		}
		noisyMean[i] = n
	}
	out, err := d.opt.Solve(noisyMean, d.cfg.Beta)
	if err != nil {
		return nil, fmt.Errorf("defense: DPRelease: %w", err)
	}
	return out, nil
}

// ReleaseVectors applies the identical mechanism to caller-supplied
// member frequency vectors instead of cloaked dummy locations: the
// members' per-dimension sums feed the noisy mean and the per-dimension
// max over members is the sensitivity, exactly as Release treats its k
// dummies. The streaming releaser uses this with one window-aggregate
// vector per contributing user, so each tick is an (ε,δ)-DP release
// under the same neighbouring relation. Every vector must have the
// city's dimensionality M.
func (d *DPRelease) ReleaseVectors(src *rng.Source, vecs []poi.FreqVector) (poi.FreqVector, error) {
	if len(vecs) == 0 {
		return nil, fmt.Errorf("defense: ReleaseVectors: no member vectors")
	}
	m := d.svc.City().M()
	sums := make([]int, m)
	senss := make([]int, m)
	for j, vec := range vecs {
		if len(vec) != m {
			return nil, fmt.Errorf("defense: ReleaseVectors: vector %d has %d dims, city has %d", j, len(vec), m)
		}
		for i, v := range vec {
			sums[i] += v
			if v > senss[i] {
				senss[i] = v
			}
		}
	}
	return d.noiseAndSolve(src, sums, senss, float64(len(vecs)))
}

// Config returns the mechanism parameters.
func (d *DPRelease) Config() DPReleaseConfig { return d.cfg }

// ReleaseWithAccountant charges the release's (ε, δ) to the accountant
// before producing it, enforcing an end-to-end privacy budget across a
// session of repeated queries (basic sequential composition). When the
// budget is exhausted the release is refused with dp.ErrBudgetExhausted
// and no privacy is spent.
func (d *DPRelease) ReleaseWithAccountant(src *rng.Source, acct *dp.Accountant, l geo.Point, r float64) (poi.FreqVector, error) {
	if acct == nil {
		return nil, fmt.Errorf("defense: ReleaseWithAccountant: nil accountant")
	}
	if d.cloaker == nil {
		return nil, errNoPopulation
	}
	delta := d.cfg.Delta
	if d.cfg.Mech == MechLaplace {
		delta = 0
	}
	if err := acct.Spend(d.cfg.Eps, delta); err != nil {
		return nil, fmt.Errorf("defense: ReleaseWithAccountant: %w", err)
	}
	return d.Release(src, l, r)
}
