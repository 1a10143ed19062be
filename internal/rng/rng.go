// Package rng provides a deterministic, splittable random number generator
// and the probability-distribution samplers the model substrates need:
// Gaussian, Gamma, Beta, Dirichlet, categorical/multinomial, multivariate
// normal and Wishart.
//
// Every model in this repository takes an explicit *rng.RNG so experiments
// are reproducible bit-for-bit from a seed.
package rng

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/mat"
)

// RNG is a deterministic pseudo-random generator. It wraps math/rand's
// distribution machinery around a xoshiro256** source whose full state is
// four uint64 words, so a generator can be checkpointed mid-stream with
// State and reconstructed bit-exactly with FromState (the property the
// trainers' checkpoint/resume paths rely on).
type RNG struct {
	r   *rand.Rand
	src *xoshiro
}

// xoshiro is the xoshiro256** generator (Blackman & Vigna 2018). It
// implements rand.Source64. The wrapping rand.Rand keeps no hidden state of
// its own for the methods this package exposes (rand.Rand only buffers for
// Read, which RNG never calls), so the four state words are the complete
// generator state.
type xoshiro struct {
	s [4]uint64
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

func (x *xoshiro) Uint64() uint64 {
	s := &x.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func (x *xoshiro) Int63() int64 { return int64(x.Uint64() >> 1) }

// Seed initializes the state from a 64-bit seed by running splitmix64, the
// initialization Vigna recommends; it never produces the all-zero state.
func (x *xoshiro) Seed(seed int64) {
	z := uint64(seed)
	for i := range x.s {
		z += 0x9e3779b97f4a7c15
		w := z
		w = (w ^ w>>30) * 0xbf58476d1ce4e5b9
		w = (w ^ w>>27) * 0x94d049bb133111eb
		x.s[i] = w ^ w>>31
	}
}

// New returns an RNG seeded with seed.
func New(seed int64) *RNG {
	src := &xoshiro{}
	src.Seed(seed)
	return &RNG{r: rand.New(src), src: src}
}

// State returns the generator's complete internal state. Restoring it with
// FromState yields a generator that continues the exact same stream.
func (g *RNG) State() [4]uint64 {
	return g.src.s
}

// FromState reconstructs a generator from a State snapshot. The all-zero
// state (a fixed point of xoshiro that State can never return) is rejected.
func FromState(s [4]uint64) (*RNG, error) {
	if s == ([4]uint64{}) {
		return nil, errAllZeroState
	}
	src := &xoshiro{s: s}
	return &RNG{r: rand.New(src), src: src}, nil
}

var errAllZeroState = errors.New("rng: all-zero state is not a valid xoshiro256** state")

// Split derives an independent child generator from the current stream.
// Use it to give sub-tasks (e.g. per-company generation) their own streams
// without consuming unbounded state from the parent.
func (g *RNG) Split() *RNG {
	return New(g.r.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// SkipFloat64 advances the generator exactly as n Float64 calls would,
// without computing their values: a fan-out that must reproduce one
// sequential stream uses it to find the state at which each block of work
// starts (lda.Representations). math/rand's Float64 takes one raw draw and
// redraws only when the 63-bit value rounds up to 1.0 as a float64, which is
// the top 512 values of the range (half the float64 spacing of 1024 below
// 2^63, ties to even going up); the inner loop honours that redraw.
//
// The xoshiro step is repeated here on locals instead of calling Uint64:
// that sequential pass is what bounds the fan-out's speed-up, and the call
// through memory costs 2.5x the step itself. TestSkipFloat64* hold the two
// copies together.
func (g *RNG) SkipFloat64(n int) {
	s0, s1, s2, s3 := g.src.s[0], g.src.s[1], g.src.s[2], g.src.s[3]
	for i := 0; i < n; i++ {
		for {
			raw := rotl(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			if raw>>1 < 1<<63-512 {
				break
			}
		}
	}
	g.src.s = [4]uint64{s0, s1, s2, s3}
}

// Intn returns a uniform int in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Norm returns a standard normal sample.
func (g *RNG) Norm() float64 { return g.r.NormFloat64() }

// Gaussian returns a normal sample with the given mean and standard deviation.
func (g *RNG) Gaussian(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Exponential returns a sample from Exp(rate).
func (g *RNG) Exponential(rate float64) float64 {
	return g.r.ExpFloat64() / rate
}

// Gamma samples from Gamma(shape, 1) using the Marsaglia–Tsang method,
// with the Ahrens–Dieter boost for shape < 1. Multiply by a scale parameter
// for general Gamma(shape, scale).
func (g *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma shape must be positive")
	}
	if shape < 1 {
		// boost: Gamma(a) = Gamma(a+1) * U^(1/a)
		u := g.r.Float64()
		for u == 0 {
			u = g.r.Float64()
		}
		return g.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta samples from Beta(a, b).
func (g *RNG) Beta(a, b float64) float64 {
	x := g.Gamma(a)
	y := g.Gamma(b)
	return x / (x + y)
}

// Dirichlet samples from Dirichlet(alpha) into a new slice.
func (g *RNG) Dirichlet(alpha []float64) []float64 {
	out := make([]float64, len(alpha))
	g.DirichletTo(out, alpha)
	return out
}

// DirichletTo samples from Dirichlet(alpha) into dst.
func (g *RNG) DirichletTo(dst, alpha []float64) {
	if len(dst) != len(alpha) {
		panic("rng: DirichletTo length mismatch")
	}
	var sum float64
	for i, a := range alpha {
		v := g.Gamma(a)
		dst[i] = v
		sum += v
	}
	if sum == 0 {
		// All gammas underflowed; fall back to uniform.
		u := 1 / float64(len(dst))
		for i := range dst {
			dst[i] = u
		}
		return
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// Categorical samples an index with probability proportional to weights[i].
// Weights must be non-negative with a positive sum.
func (g *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 || math.IsNaN(total) {
		panic("rng: Categorical weights must have positive sum")
	}
	u := g.r.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1 // floating-point slack
}

// Multinomial draws n samples from Categorical(weights) and returns counts.
func (g *RNG) Multinomial(n int, weights []float64) []int {
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[g.Categorical(weights)]++
	}
	return counts
}

// MVNormal samples from N(mean, cov) where covChol is the lower Cholesky
// factor of the covariance matrix: x = mean + L z.
func (g *RNG) MVNormal(mean []float64, covChol *mat.Matrix) []float64 {
	n := len(mean)
	if covChol.Rows != n || covChol.Cols != n {
		panic("rng: MVNormal dimension mismatch")
	}
	z := make([]float64, n)
	for i := range z {
		z[i] = g.r.NormFloat64()
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		row := covChol.Row(i)
		s := mean[i]
		for j := 0; j <= i; j++ {
			s += row[j] * z[j]
		}
		out[i] = s
	}
	return out
}

// Wishart samples from Wishart(df, scale) using the Bartlett decomposition.
// scaleChol is the lower Cholesky factor of the scale matrix; df must be at
// least the dimension. The returned matrix is symmetric positive definite
// (almost surely).
func (g *RNG) Wishart(df float64, scaleChol *mat.Matrix) *mat.Matrix {
	p := scaleChol.Rows
	if df < float64(p) {
		panic("rng: Wishart df must be >= dimension")
	}
	// Bartlett factor A: lower triangular, A_ii ~ sqrt(chi2(df-i)),
	// A_ij ~ N(0,1) for i > j.
	a := mat.New(p, p)
	for i := 0; i < p; i++ {
		a.Set(i, i, math.Sqrt(g.ChiSquared(df-float64(i))))
		for j := 0; j < i; j++ {
			a.Set(i, j, g.r.NormFloat64())
		}
	}
	la := mat.Mul(scaleChol, a)
	w := mat.Mul(la, la.Transpose())
	w.Symmetrize()
	return w
}

// ChiSquared samples from a chi-squared distribution with df degrees of
// freedom (df may be fractional).
func (g *RNG) ChiSquared(df float64) float64 {
	return 2 * g.Gamma(df/2)
}

// Poisson samples from Poisson(lambda) by inversion for small lambda and a
// normal approximation above 500 (adequate for workload generation).
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		v := math.Round(g.Gaussian(lambda, math.Sqrt(lambda)))
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Zipf returns a sampler of ranks in [0, n) following a Zipf distribution
// with exponent s >= 0 (s=0 is uniform). Used for popularity-skewed
// product selection in the data generator.
func (g *RNG) Zipf(n int, s float64) func() int {
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
	}
	return func() int { return g.Categorical(weights) }
}
