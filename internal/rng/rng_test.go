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
		acc.AxpyInPlace(1, w)
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

// TestReseedMatchesNew pins Reseed to New's stream, whatever the generator
// drew before: a reused generator must give the bits a fresh one gives.
func TestReseedMatchesNew(t *testing.T) {
	g := New(1)
	for _, seed := range []int64{0, 1, -1, 42, 1 << 62} {
		g.Float64()
		g.Intn(7)
		g.Reseed(seed)
		fresh := New(seed)
		if g.State() != fresh.State() {
			t.Fatalf("seed %d: state after Reseed differs from New's", seed)
		}
		for i := 0; i < 20; i++ {
			if a, b := g.Float64(), fresh.Float64(); a != b {
				t.Fatalf("seed %d draw %d: Reseed gives %v, New gives %v", seed, i, a, b)
			}
		}
	}
}
