package rng

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := New(43)
	same := true
	a2 := New(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestSplitIndependence(t *testing.T) {
	g := New(1)
	c1 := g.Split()
	c2 := g.Split()
	if c1.Float64() == c2.Float64() && c1.Float64() == c2.Float64() {
		t.Fatal("split children should differ")
	}
}

func TestGaussianMoments(t *testing.T) {
	g := New(7)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.Gaussian(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Fatalf("variance = %v, want ~4", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	g := New(11)
	for _, shape := range []float64{0.5, 1, 2.5, 10} {
		n := 100000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := g.Gamma(shape)
			if v < 0 {
				t.Fatalf("negative gamma sample %v", v)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / float64(n)
		variance := sumsq/float64(n) - mean*mean
		if math.Abs(mean-shape) > 0.15*shape+0.05 {
			t.Fatalf("Gamma(%v) mean = %v", shape, mean)
		}
		if math.Abs(variance-shape) > 0.25*shape+0.1 {
			t.Fatalf("Gamma(%v) variance = %v", shape, variance)
		}
	}
}

func TestGammaPanicsOnNonPositiveShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Gamma(0)
}

func TestBetaRangeAndMean(t *testing.T) {
	g := New(13)
	var sum float64
	n := 50000
	for i := 0; i < n; i++ {
		v := g.Beta(2, 5)
		if v < 0 || v > 1 {
			t.Fatalf("Beta out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-2.0/7.0) > 0.01 {
		t.Fatalf("Beta(2,5) mean = %v, want %v", mean, 2.0/7.0)
	}
}

func TestDirichletSimplexProperty(t *testing.T) {
	g := New(17)
	f := func(seed int64) bool {
		k := 2 + int(seed%7+7)%7
		alpha := make([]float64, k)
		for i := range alpha {
			alpha[i] = 0.1 + g.Float64()*3
		}
		p := g.Dirichlet(alpha)
		var s float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			s += v
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletMean(t *testing.T) {
	g := New(19)
	alpha := []float64{1, 2, 7}
	sum := make([]float64, 3)
	n := 50000
	for i := 0; i < n; i++ {
		p := g.Dirichlet(alpha)
		for j, v := range p {
			sum[j] += v
		}
	}
	for j, a := range alpha {
		want := a / 10
		if got := sum[j] / float64(n); math.Abs(got-want) > 0.01 {
			t.Fatalf("Dirichlet mean[%d] = %v, want %v", j, got, want)
		}
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	g := New(23)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[g.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category sampled %d times", counts[1])
	}
	if got := float64(counts[0]) / float64(n); math.Abs(got-0.25) > 0.01 {
		t.Fatalf("category 0 freq = %v, want 0.25", got)
	}
}

func TestCategoricalPanicsOnZeroSum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Categorical([]float64{0, 0})
}

func TestMultinomialTotal(t *testing.T) {
	g := New(29)
	counts := g.Multinomial(1000, []float64{1, 2, 3})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1000 {
		t.Fatalf("Multinomial total = %d", total)
	}
}

func TestMVNormalMoments(t *testing.T) {
	g := New(31)
	// cov = [[4, 2], [2, 3]]
	cov := mat.FromSlice(2, 2, []float64{4, 2, 2, 3})
	l, err := mat.Cholesky(cov)
	if err != nil {
		t.Fatal(err)
	}
	mean := []float64{1, -2}
	n := 100000
	var m0, m1, c00, c01, c11 float64
	for i := 0; i < n; i++ {
		x := g.MVNormal(mean, l)
		m0 += x[0]
		m1 += x[1]
		d0, d1 := x[0]-1, x[1]+2
		c00 += d0 * d0
		c01 += d0 * d1
		c11 += d1 * d1
	}
	fn := float64(n)
	if math.Abs(m0/fn-1) > 0.05 || math.Abs(m1/fn+2) > 0.05 {
		t.Fatalf("MVN mean = (%v, %v)", m0/fn, m1/fn)
	}
	if math.Abs(c00/fn-4) > 0.15 || math.Abs(c01/fn-2) > 0.15 || math.Abs(c11/fn-3) > 0.15 {
		t.Fatalf("MVN cov = (%v, %v, %v)", c00/fn, c01/fn, c11/fn)
	}
}

func TestWishartMean(t *testing.T) {
	g := New(37)
	// E[Wishart(df, V)] = df * V
	v := mat.FromSlice(2, 2, []float64{1, 0.3, 0.3, 2})
	l, err := mat.Cholesky(v)
	if err != nil {
		t.Fatal(err)
	}
	df := 5.0
	n := 20000
	acc := mat.New(2, 2)
	for i := 0; i < n; i++ {
		w := g.Wishart(df, l)
		acc.AddInPlace(w)
		// SPD check on a few samples
		if i < 100 {
			if _, err := mat.Cholesky(w); err != nil {
				t.Fatalf("Wishart sample not SPD: %v", w)
			}
		}
	}
	acc.Scale(1 / float64(n))
	want := v.Clone()
	want.Scale(df)
	if !mat.Equal(acc, want, 0.15) {
		t.Fatalf("Wishart mean = %v, want %v", acc, want)
	}
}

func TestChiSquaredMean(t *testing.T) {
	g := New(41)
	df := 7.0
	var sum float64
	n := 50000
	for i := 0; i < n; i++ {
		sum += g.ChiSquared(df)
	}
	if mean := sum / float64(n); math.Abs(mean-df) > 0.15 {
		t.Fatalf("ChiSquared mean = %v, want %v", mean, df)
	}
}

func TestPoissonMean(t *testing.T) {
	g := New(43)
	for _, lambda := range []float64{0.5, 4, 30} {
		var sum float64
		n := 50000
		for i := 0; i < n; i++ {
			sum += float64(g.Poisson(lambda))
		}
		if mean := sum / float64(n); math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if New(1).Poisson(0) != 0 {
		t.Fatal("Poisson(0) should be 0")
	}
}

func TestZipfSkew(t *testing.T) {
	g := New(47)
	sample := g.Zipf(10, 1.2)
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		counts[sample()]++
	}
	if counts[0] <= counts[5] || counts[5] <= counts[9] {
		t.Fatalf("Zipf counts not decreasing: %v", counts)
	}
	// s=0 is uniform
	u := g.Zipf(4, 0)
	uc := make([]int, 4)
	for i := 0; i < 40000; i++ {
		uc[u()]++
	}
	for _, c := range uc {
		if math.Abs(float64(c)-10000) > 500 {
			t.Fatalf("Zipf(s=0) not uniform: %v", uc)
		}
	}
}

func TestPermAndShuffle(t *testing.T) {
	g := New(53)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad perm %v", p)
		}
		seen[v] = true
	}
	xs := []int{1, 2, 3, 4, 5}
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestExponentialMean(t *testing.T) {
	g := New(59)
	var sum float64
	n := 50000
	for i := 0; i < n; i++ {
		sum += g.Exponential(2)
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Exponential(2) mean = %v, want 0.5", mean)
	}
}

func TestStateRoundTrip(t *testing.T) {
	g := New(42)
	// Burn a mixed workload so the state is mid-stream, not fresh.
	for i := 0; i < 100; i++ {
		g.Float64()
		g.Norm()
		g.Intn(7 + i)
		g.Gamma(0.5 + float64(i))
	}
	st := g.State()
	h, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if a, b := g.Float64(), h.Float64(); a != b {
			t.Fatalf("stream diverged at %d: %v != %v", i, a, b)
		}
		if a, b := g.Norm(), h.Norm(); a != b {
			t.Fatalf("Norm diverged at %d: %v != %v", i, a, b)
		}
		if a, b := g.Intn(1000), h.Intn(1000); a != b {
			t.Fatalf("Intn diverged at %d: %d != %d", i, a, b)
		}
	}
}

func TestStateDoesNotAliasGenerator(t *testing.T) {
	g := New(1)
	st := g.State()
	g.Float64()
	if st == g.State() {
		t.Fatal("State snapshot should be decoupled from the live generator")
	}
}

func TestFromStateRejectsAllZero(t *testing.T) {
	if _, err := FromState([4]uint64{}); err == nil {
		t.Fatal("all-zero state must be rejected")
	}
}

// mustFromState is FromState for states the test knows are non-zero.
func mustFromState(t *testing.T, s [4]uint64) *RNG {
	t.Helper()
	g, err := FromState(s)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSkipFloat64MatchesFloat64 is the contract lda.Representations leans
// on: skipping n draws leaves the generator where n Float64 calls leave it.
func TestSkipFloat64MatchesFloat64(t *testing.T) {
	seeds := New(99)
	for trial := 0; trial < 200; trial++ {
		start := New(seeds.Int63()).State()
		n := seeds.Intn(300)
		drawn, skipped := mustFromState(t, start), mustFromState(t, start)
		for i := 0; i < n; i++ {
			drawn.Float64()
		}
		skipped.SkipFloat64(n)
		if drawn.State() != skipped.State() {
			t.Fatalf("trial %d: state after SkipFloat64(%d) differs from %d Float64 calls", trial, n, n)
		}
	}
	g := New(5)
	before := g.State()
	g.SkipFloat64(0)
	if g.State() != before {
		t.Fatal("SkipFloat64(0) moved the generator")
	}
}

// stateWithNextRaw returns a state whose next Uint64 is raw, by inverting
// xoshiro256**'s output scrambler rotl(s1*5, 7)*9 for the s[1] word.
func stateWithNextRaw(raw uint64) [4]uint64 {
	inverse := func(odd uint64) uint64 { // Newton iteration mod 2^64
		inv := odd
		for i := 0; i < 6; i++ {
			inv *= 2 - odd*inv
		}
		return inv
	}
	x := raw * inverse(9)
	s1 := (x>>7 | x<<57) * inverse(5)
	return [4]uint64{0x9e3779b97f4a7c15, s1, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb}
}

// TestSkipFloat64HonoursResample drives the one exception to "one raw draw
// per Float64": math/rand redraws when the 63-bit value rounds to 1.0. The
// crafted states put the next raw output on both sides of that threshold.
func TestSkipFloat64HonoursResample(t *testing.T) {
	const first = uint64(1<<63 - 512) // smallest 63-bit value that rounds to 2^63
	cases := []struct {
		name     string
		raw      uint64
		resample bool
	}{
		{"all ones", ^uint64(0), true},
		{"threshold", first << 1, true},
		{"threshold low bit set", first<<1 | 1, true},
		{"just below threshold", (first-1)<<1 | 1, false},
		{"zero", 0, false},
	}
	for _, tc := range cases {
		start := stateWithNextRaw(tc.raw)
		if got := mustFromState(t, start).src.Uint64(); got != tc.raw {
			t.Fatalf("%s: crafted state yields raw %#x, want %#x", tc.name, got, tc.raw)
		}
		oneStep := mustFromState(t, start)
		oneStep.src.Uint64()
		drawn, skipped := mustFromState(t, start), mustFromState(t, start)
		if f := drawn.Float64(); f < 0 || f >= 1 {
			t.Fatalf("%s: Float64 = %v outside [0,1)", tc.name, f)
		}
		skipped.SkipFloat64(1)
		if drawn.State() != skipped.State() {
			t.Fatalf("%s: SkipFloat64(1) and Float64 disagree", tc.name)
		}
		if resampled := drawn.State() != oneStep.State(); resampled != tc.resample {
			t.Fatalf("%s: Float64 resampled = %v, want %v", tc.name, resampled, tc.resample)
		}
	}
}
