// Package stats provides the descriptive and inferential statistics used in
// the paper's evaluation: means/variances, quantiles and boxplot summaries,
// Student-t confidence intervals for the accuracy plots, the binomial tail
// test used to establish that product sequences are non-i.i.d., and
// precision/recall/F1 accounting for the recommender harness.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 when len < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest element of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the numpy/R default).
// It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: Quantile q out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// NearestRank returns the q-quantile of already-sorted raw samples by ceil
// nearest rank: the smallest sample such that at least a fraction q of the
// samples is <= it (rank ceil(q*n), clamped to [1, n]); the zero value for an
// empty slice. It never interpolates, so the answer is always an observed
// sample — what latency percentiles want — and floor indexing's silent
// under-reporting of tails (p999 over 500 samples reading sample 498) cannot
// happen. Quantile above is the interpolating definition for the paper's
// boxplots.
func NearestRank[T any](sorted []T, q float64) T {
	n := len(sorted)
	if n == 0 {
		var zero T
		return zero
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// Boxplot summarizes a sample the way a box-and-whisker plot does
// (used to reproduce the paper's Figure 5, the BPMF score boxplot).
type Boxplot struct {
	Min, Q1, Median, Q3, Max float64
	WhiskerLo, WhiskerHi     float64   // 1.5*IQR whiskers clamped to data
	Outliers                 []float64 // points beyond the whiskers
}

// BoxplotStats computes the five-number summary plus 1.5*IQR whiskers and
// outliers. It panics on an empty sample.
func BoxplotStats(xs []float64) Boxplot {
	b := Boxplot{
		Min:    Min(xs),
		Q1:     Quantile(xs, 0.25),
		Median: Quantile(xs, 0.5),
		Q3:     Quantile(xs, 0.75),
		Max:    Max(xs),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLo, b.WhiskerHi = b.Max, b.Min
	for _, v := range xs {
		if v < loFence || v > hiFence {
			b.Outliers = append(b.Outliers, v)
			continue
		}
		if v < b.WhiskerLo {
			b.WhiskerLo = v
		}
		if v > b.WhiskerHi {
			b.WhiskerHi = v
		}
	}
	sort.Float64s(b.Outliers)
	return b
}

// CI is a symmetric confidence interval around a sample mean.
type CI struct {
	Mean, Lo, Hi float64
	N            int
}

// MeanCI returns the 95% Student-t confidence interval for the mean of xs.
// With fewer than two observations the interval collapses to the mean.
func MeanCI(xs []float64) CI {
	n := len(xs)
	m := Mean(xs)
	if n < 2 {
		return CI{Mean: m, Lo: m, Hi: m, N: n}
	}
	se := StdDev(xs) / math.Sqrt(float64(n))
	t := tCritical95(n - 1)
	return CI{Mean: m, Lo: m - t*se, Hi: m + t*se, N: n}
}

// tCritical95 returns the two-sided 95% critical value of Student's t
// distribution with df degrees of freedom, from a standard table with
// asymptotic fallback (1.960 for large df).
func tCritical95(df int) float64 {
	table := []float64{
		0, // df=0 unused
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return math.NaN()
	case df < len(table):
		return table[df]
	case df < 40:
		return 2.03
	case df < 60:
		return 2.00
	case df < 120:
		return 1.98
	default:
		return 1.96
	}
}

// PRF holds precision, recall and F1 for one evaluation window.
type PRF struct {
	Precision, Recall, F1 float64
	Retrieved             int // products recommended
	CorrectlyRetrieved    int // recommended ∧ relevant
	Relevant              int // ground-truth products
}

// ComputePRF derives precision/recall/F1 from retrieval counts. Precision is
// NaN when nothing is retrieved (undefined, matching the paper's treatment);
// recall is 0 when nothing is relevant and nothing was retrieved correctly.
func ComputePRF(retrieved, correct, relevant int) PRF {
	p := PRF{Retrieved: retrieved, CorrectlyRetrieved: correct, Relevant: relevant}
	if retrieved > 0 {
		p.Precision = float64(correct) / float64(retrieved)
	} else {
		p.Precision = math.NaN()
	}
	if relevant > 0 {
		p.Recall = float64(correct) / float64(relevant)
	}
	if !math.IsNaN(p.Precision) && p.Precision+p.Recall > 0 {
		p.F1 = 2 * p.Precision * p.Recall / (p.Precision + p.Recall)
	}
	return p
}

// LogBinomialCoeff returns ln C(n, k) via log-gamma.
func LogBinomialCoeff(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// BinomialTailProb returns P(X >= k) for X ~ Binomial(n, p).
// It sums exact terms in log space; n here is at most a few hundred
// thousand but the loop runs only over the tail, terminating once terms
// become negligible.
func BinomialTailProb(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n || p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lp, lq := math.Log(p), math.Log1p(-p)
	var sum float64
	for i := k; i <= n; i++ {
		lt := LogBinomialCoeff(n, i) + float64(i)*lp + float64(n-i)*lq
		term := math.Exp(lt)
		sum += term
		// Terms decay geometrically once past the mode; stop when negligible.
		// A far-tail query can have every term underflow to exactly 0, which
		// keeps sum at 0 and defeats the relative threshold below — without
		// the term == 0 break such a query walks all n-k remaining terms.
		if i > int(float64(n)*p) && (term == 0 || term < sum*1e-12) {
			break
		}
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// BinomialTestSignificant reports whether observing k successes in n trials
// is significantly MORE than expected under Binomial(n, p) at level alpha
// (one-sided upper test). This is the paper's sequentiality test: an n-gram
// occurring significantly more often than under i.i.d. products.
func BinomialTestSignificant(n, k int, p, alpha float64) bool {
	return BinomialTailProb(n, k, p) < alpha
}

// Histogram counts xs into nbins equal-width bins over [lo, hi]. Values
// outside the range are clamped into the edge bins.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	if nbins <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	counts := make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, v := range xs {
		b := int((v - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
