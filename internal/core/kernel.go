package core

import (
	"math"

	"repro/internal/mat"
)

// Scorer is the blocked exact scoring kernel of the candidate scans: a
// query-bound similarity evaluator that hoists the per-query work — the query
// norm — out of the per-candidate loop and fuses the dot product with the
// candidate norm into one pass over the row, so a scan streams each Reps row
// through cache exactly once. A Scorer is immutable after construction and
// safe to share across scan goroutines.
//
// Bit-compatibility contract: Score(row) returns exactly what the naive
// per-pair path (mat.CosineSim) returns for the same operands, including the
// zero-norm guard — multiplication operand order and summation order are
// preserved — so switching the scans to the kernel changes no served byte.
// Pinned by TestScorerMatchesSimilarity.
type Scorer struct {
	query []float64
	qnorm float64 // cached ‖query‖
}

// NewScorer binds a query vector, precomputing its norm. The metric is
// Cosine, the only one an index has.
func NewScorer(_ Metric, query []float64) *Scorer {
	return &Scorer{query: query, qnorm: mat.Norm2(query)}
}

// Score returns the cosine similarity of the query and row.
func (s *Scorer) Score(row []float64) float64 {
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
