package core

import (
	"math"

	"repro/internal/mat"
)

// Scorer is the blocked exact scoring kernel of the candidate scans: a
// query-bound similarity evaluator that hoists the per-query work — the
// metric dispatch and the query norm — out of the per-candidate loop and
// fuses the dot product with the candidate norm into one pass over the row,
// so a scan streams each Reps row through cache exactly once. A Scorer is
// immutable after construction and safe to share across scan goroutines.
//
// Bit-compatibility contract: Score(row) returns exactly what the naive
// per-pair path (mat.CosineSim / the Euclidean transform in
// Index.similarity) returns for the same operands, including the zero-norm
// guard — multiplication operand order and summation order are preserved —
// so switching the scans to the kernel changes no served byte. Pinned by
// TestScorerMatchesSimilarity.
type Scorer struct {
	metric Metric
	query  []float64
	qnorm  float64 // cached ‖query‖; cosine only
}

// NewScorer binds a query vector to a metric, precomputing the query norm.
func NewScorer(metric Metric, query []float64) *Scorer {
	s := &Scorer{metric: metric, query: query}
	if metric != Euclidean {
		s.qnorm = mat.Norm2(query)
	}
	return s
}

// Score returns similarity(query, row) under the bound metric.
func (s *Scorer) Score(row []float64) float64 {
	if s.metric == Euclidean {
		return euclideanSimilarity(s.query, row)
	}
	var dot, rr float64
	for i, v := range s.query {
		dot += v * row[i]
		rr += row[i] * row[i]
	}
	rn := math.Sqrt(rr)
	if s.qnorm == 0 || rn == 0 {
		return 0
	}
	return dot / (s.qnorm * rn)
}

// ScoreBlock scores the contiguous row block [lo, hi) of m into
// dst[0:hi-lo], streaming the block's backing array front to back. This is
// the bulk entry the ANN router uses to rank centroid cells and the shape
// the kernel benchmark measures.
func (s *Scorer) ScoreBlock(m *mat.Matrix, lo, hi int, dst []float64) {
	if hi-lo > len(dst) {
		panic("core: ScoreBlock destination too short")
	}
	d := m.Cols
	data := m.Data[lo*d : hi*d]
	for r := 0; r < hi-lo; r++ {
		dst[r] = s.Score(data[r*d : (r+1)*d])
	}
}
