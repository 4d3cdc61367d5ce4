// Package rng provides deterministic, splittable random streams and the
// distributions used across the POI-aggregate reproduction: Gaussian and
// Laplace noise for differential privacy, Zipf-distributed categorical
// sampling for POI type frequencies, and the polar planar-Laplace sampler
// used by geo-indistinguishability.
//
// All experiment randomness flows through this package so that every
// figure reproduces bit-for-bit from a seed.
package rng

import (
	"math"
	"math/rand/v2"

	"poiagg/internal/hash64"
)

// Source is a deterministic random stream. It wraps the standard PCG
// generator and adds distribution samplers and deterministic splitting.
type Source struct {
	r *rand.Rand
	// seeds retained so Split can derive independent children.
	s1, s2 uint64
}

// New returns a stream seeded from seed. Distinct seeds give independent
// streams.
func New(seed uint64) *Source {
	return newFrom(seed, splitmix64(seed+0x9e3779b97f4a7c15))
}

func newFrom(s1, s2 uint64) *Source {
	return &Source{r: rand.New(rand.NewPCG(s1, s2)), s1: s1, s2: s2}
}

// splitmix64 is the canonical splitmix64 mixing function, used to derive
// decorrelated child seeds.
func splitmix64(x uint64) uint64 { return hash64.Mix(x + 0x9e3779b97f4a7c15) }

// Split derives an independent child stream keyed by label. Splitting the
// same parent with the same label always yields the same child, and the
// child does not perturb the parent's sequence.
func (s *Source) Split(label uint64) *Source {
	return newFrom(
		splitmix64(s.s1^label^0xd1b54a32d192ed03),
		splitmix64(s.s2+label*0x2545f4914f6cdd1d+1),
	)
}

// Float64 returns a uniform sample in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform int in [0, n). It panics when n <= 0, matching
// math/rand/v2 semantics.
func (s *Source) IntN(n int) int { return s.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.r.Uint64() }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Normal returns a sample from N(mean, stddev²).
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Exp returns a sample from the exponential distribution with the given
// rate (mean 1/rate).
func (s *Source) Exp(rate float64) float64 {
	return s.r.ExpFloat64() / rate
}

// Laplace returns a sample from the Laplace distribution with location mu
// and scale b. Used by the one-dimensional Laplace mechanism.
func (s *Source) Laplace(mu, b float64) float64 {
	u := s.r.Float64() - 0.5
	return mu - b*sign(u)*math.Log(1-2*math.Abs(u))
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// UniformIn returns a uniform point inside the axis-aligned box
// [minX,maxX) x [minY,maxY).
func (s *Source) UniformIn(minX, minY, maxX, maxY float64) (x, y float64) {
	return minX + s.r.Float64()*(maxX-minX), minY + s.r.Float64()*(maxY-minY)
}

// UniformInDisk returns a uniform point in the disk of the given radius
// centered at the origin.
func (s *Source) UniformInDisk(radius float64) (x, y float64) {
	theta := 2 * math.Pi * s.r.Float64()
	r := radius * math.Sqrt(s.r.Float64())
	return r * math.Cos(theta), r * math.Sin(theta)
}

// PlanarLaplace returns an offset (dx, dy) drawn from the planar Laplace
// distribution with privacy parameter eps (per meter of the working unit).
// The radial component is sampled by inverting the radial CDF
// C(r) = 1 − (1 + εr)e^{−εr} using the Lambert W₋₁ branch, following
// Andrés et al. (CCS'13).
func (s *Source) PlanarLaplace(eps float64) (dx, dy float64) {
	theta := 2 * math.Pi * s.r.Float64()
	p := s.r.Float64()
	r := -(LambertWm1((p-1)/math.E) + 1) / eps
	return r * math.Cos(theta), r * math.Sin(theta)
}

// LambertWm1 evaluates the W₋₁ branch of the Lambert W function for
// x in [-1/e, 0). It returns NaN outside that domain.
func LambertWm1(x float64) float64 {
	if x < -1/math.E || x >= 0 {
		return math.NaN()
	}
	// Initial guess from the series around the branch point and the
	// asymptotic log form, then Halley iterations.
	var w float64
	if x > -0.25 {
		l1 := math.Log(-x)
		l2 := math.Log(-l1)
		w = l1 - l2 + l2/l1
	} else {
		p := -math.Sqrt(2 * (1 + math.E*x))
		w = -1 + p - p*p/3 + 11*p*p*p/72
	}
	for i := 0; i < 64; i++ {
		ew := math.Exp(w)
		f := w*ew - x
		// Halley step.
		denom := ew*(w+1) - (w+2)*f/(2*w+2)
		if denom == 0 {
			break
		}
		d := f / denom
		w -= d
		if math.Abs(d) < 1e-14*(1+math.Abs(w)) {
			break
		}
	}
	return w
}

// Zipf is a categorical sampler over {0, …, n−1} where category k has
// probability proportional to 1/(k+1)^s. Category 0 is the most frequent.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler with n categories and exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	cdf := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &Zipf{cdf: cdf}
}

// N returns the number of categories.
func (z *Zipf) N() int { return len(z.cdf) }

// Prob returns the probability of category k.
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= len(z.cdf) {
		return 0
	}
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// Sample draws a category using src.
func (z *Zipf) Sample(src *Source) int {
	u := src.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
