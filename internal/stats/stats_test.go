package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Variance(xs); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("empty/short-slice conventions broken")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max wrong: %v %v", Min(xs), Max(xs))
	}
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 1.75 {
		t.Fatalf("q25 = %v", got)
	}
	if got := Quantile([]float64{5}, 0.9); got != 5 {
		t.Fatalf("single-element quantile = %v", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			qq := math.Min(q, 1)
			v := Quantile(xs, qq)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxplotStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 100}
	b := BoxplotStats(xs)
	if b.Min != 1 || b.Max != 100 || b.Median != 3.5 {
		t.Fatalf("five-number summary wrong: %+v", b)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("outliers = %v, want [100]", b.Outliers)
	}
	if b.WhiskerHi != 5 || b.WhiskerLo != 1 {
		t.Fatalf("whiskers = (%v, %v)", b.WhiskerLo, b.WhiskerHi)
	}
}

func TestMeanCICoversTrueMean(t *testing.T) {
	// frequentist coverage: ~95% of CIs should contain the true mean
	r := rand.New(rand.NewSource(5))
	trials, covered := 2000, 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, 13) // 13 windows, like the paper
		for j := range xs {
			xs[j] = 10 + 3*r.NormFloat64()
		}
		ci := MeanCI(xs)
		if ci.Lo <= 10 && 10 <= ci.Hi {
			covered++
		}
		if ci.Lo > ci.Mean || ci.Hi < ci.Mean {
			t.Fatal("CI does not contain its own mean")
		}
	}
	rate := float64(covered) / float64(trials)
	if rate < 0.92 || rate > 0.98 {
		t.Fatalf("CI coverage = %v, want ~0.95", rate)
	}
}

func TestMeanCISingleObservation(t *testing.T) {
	ci := MeanCI([]float64{7})
	if ci.Lo != 7 || ci.Hi != 7 || ci.Mean != 7 {
		t.Fatalf("degenerate CI = %+v", ci)
	}
}

func TestComputePRF(t *testing.T) {
	p := ComputePRF(10, 4, 8)
	if p.Precision != 0.4 || p.Recall != 0.5 {
		t.Fatalf("PRF = %+v", p)
	}
	wantF1 := 2 * 0.4 * 0.5 / 0.9
	if math.Abs(p.F1-wantF1) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", p.F1, wantF1)
	}
	// nothing retrieved: precision undefined (NaN), like the paper notes
	p2 := ComputePRF(0, 0, 5)
	if !math.IsNaN(p2.Precision) || p2.Recall != 0 || p2.F1 != 0 {
		t.Fatalf("empty-retrieval PRF = %+v", p2)
	}
}

func TestLogBinomialCoeff(t *testing.T) {
	if got := LogBinomialCoeff(5, 2); math.Abs(got-math.Log(10)) > 1e-12 {
		t.Fatalf("C(5,2) log = %v", got)
	}
	if !math.IsInf(LogBinomialCoeff(3, 5), -1) {
		t.Fatal("out-of-range coefficient should be -inf")
	}
}

func TestBinomialTailExactSmall(t *testing.T) {
	// P(X >= 2) for Bin(3, 0.5) = (3+1)/8 = 0.5
	if got := BinomialTailProb(3, 2, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("tail = %v, want 0.5", got)
	}
	if BinomialTailProb(10, 0, 0.3) != 1 {
		t.Fatal("P(X>=0) must be 1")
	}
	if BinomialTailProb(10, 11, 0.3) != 0 {
		t.Fatal("P(X>n) must be 0")
	}
	if BinomialTailProb(10, 5, 0) != 0 || BinomialTailProb(10, 5, 1) != 1 {
		t.Fatal("edge p values wrong")
	}
}

func TestBinomialTailLarge(t *testing.T) {
	// For n=10000, p=0.1: mean 1000, sd ~30. P(X >= 1100) should be tiny,
	// P(X >= 900) should be near 1.
	if got := BinomialTailProb(10000, 1100, 0.1); got > 1e-3 {
		t.Fatalf("upper tail too heavy: %v", got)
	}
	if got := BinomialTailProb(10000, 900, 0.1); got < 0.99 {
		t.Fatalf("lower-side tail = %v, want ~1", got)
	}
}

func TestBinomialTestSignificant(t *testing.T) {
	// 200 occurrences when 100 expected from n=10000, p=0.01 -> significant
	if !BinomialTestSignificant(10000, 200, 0.01, 0.05) {
		t.Fatal("clear excess should be significant")
	}
	// 100 occurrences when 100 expected -> not significant
	if BinomialTestSignificant(10000, 100, 0.01, 0.05) {
		t.Fatal("expected count should not be significant")
	}
}

func TestTCriticalMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := tCritical95(df)
		if v > prev+1e-9 {
			t.Fatalf("t critical not non-increasing at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
	if tCritical95(1000000) != 1.96 {
		t.Fatal("asymptote should be 1.96")
	}
}

// TestBinomialTailFarTailUnderflow pins the far-tail early exit: when every
// tail term underflows to exactly 0 the loop must stop at the first such
// term past the mode instead of walking all n-k remaining terms.
func TestBinomialTailFarTailUnderflow(t *testing.T) {
	start := time.Now()
	got := BinomialTailProb(5_000_000, 1000, 1e-9)
	elapsed := time.Since(start)
	if got != 0 {
		t.Fatalf("far-tail P(X >= 1000) = %g, want exactly 0", got)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("far-tail query took %v; underflow early-exit broken", elapsed)
	}
}

// TestNearestRank pins the one raw-sample quantile to ceil nearest rank: the
// smallest sample with at least q of the distribution at or below it. The two
// historical cases are the floor-indexing bugs it replaced: ibload's p999 over
// 500 samples read sample 498 instead of the worst one, and the router's
// hedge-delay window read rank 115 of 128 for q=0.9.
func TestNearestRank(t *testing.T) {
	ranks := func(n int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = i + 1
		}
		return s
	}
	cases := []struct {
		name string
		n    int
		q    float64
		want int // == 1-based nearest rank
	}{
		{"empty", 0, 0.5, 0},
		{"single", 1, 0.999, 1},
		{"p50 even count takes the lower median", 10, 0.50, 5},
		{"p90 of 10", 10, 0.90, 9},
		{"p99 of 10 is the max", 10, 0.99, 10},
		{"p99 of 100", 100, 0.99, 99},
		{"p999 of 100 is the max", 100, 0.999, 100},
		{"p99 of 500", 500, 0.99, 495},
		{"p999 of 500 reads rank 500, not 498", 500, 0.999, 500},
		{"p999 of 1000", 1000, 0.999, 999},
		{"p90 of the 128-sample hedge window reads rank 116, not 115", 128, 0.9, 116},
		{"q=1 is the max", 7, 1.0, 7},
		{"q=0 clamps to the min", 7, 0, 1},
		{"q<0 clamps to the min", 7, -0.5, 1},
		{"q>1 clamps to the max", 7, 1.5, 7},
	}
	for _, tc := range cases {
		if got := NearestRank(ranks(tc.n), tc.q); got != tc.want {
			t.Errorf("%s: NearestRank(n=%d, q=%g) = %d, want %d", tc.name, tc.n, tc.q, got, tc.want)
		}
	}
	if got := NearestRank([]time.Duration{time.Millisecond, time.Second}, 0.5); got != time.Millisecond {
		t.Errorf("NearestRank over durations = %v, want 1ms", got)
	}
}
