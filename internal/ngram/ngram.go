// Package ngram implements unigram, bigram and trigram language models over
// product-acquisition sequences, with additive smoothing and Jelinek-Mercer
// interpolation. These are the paper's sequential association-rule baselines:
// the unigram "bag of words" model anchors the perplexity table at 19.5 and
// the best n-gram at 15.5 in the paper's deployment.
package ngram

import (
	"fmt"
	"io"
	"math"

	"repro/internal/snapshot"
)

// KindModel is the snapshot container kind for serialized n-gram models.
const KindModel = "ngram-model"

// BOS is the synthetic begin-of-sequence token id used for conditioning the
// first real tokens; it never appears as a predicted symbol.
const BOS = -1

// Model is an interpolated n-gram language model of order 1..3 over a fixed
// vocabulary of product categories [0, V).
type Model struct {
	Order  int // 1 = unigram, 2 = bigram, 3 = trigram
	V      int // vocabulary size
	AddK   float64
	Lambda []float64 // interpolation weights, Lambda[i] for order i+1; sums to 1

	UniCount []float64            // counts per token
	UniTotal float64              //
	BiCount  map[int][]float64    // context token -> counts over next token
	BiTotal  map[int]float64      //
	TriCount map[[2]int][]float64 // context pair -> counts over next token
	TriTotal map[[2]int]float64
}

// Config parameterizes n-gram training.
type Config struct {
	Order  int
	V      int
	AddK   float64   // additive smoothing inside each order (default 0.05)
	Lambda []float64 // interpolation weights; nil = sensible defaults
}

// New creates an empty model; call Fit to train it on sequences.
func New(cfg Config) (*Model, error) {
	if cfg.Order < 1 || cfg.Order > 3 {
		return nil, fmt.Errorf("ngram: order must be 1..3, got %d", cfg.Order)
	}
	if cfg.V < 1 {
		return nil, fmt.Errorf("ngram: vocabulary size must be positive, got %d", cfg.V)
	}
	if cfg.AddK <= 0 {
		cfg.AddK = 0.05
	}
	lambda := cfg.Lambda
	if lambda == nil {
		switch cfg.Order {
		case 1:
			lambda = []float64{1}
		case 2:
			lambda = []float64{0.25, 0.75}
		default:
			lambda = []float64{0.15, 0.35, 0.5}
		}
	}
	if len(lambda) != cfg.Order {
		return nil, fmt.Errorf("ngram: need %d interpolation weights, got %d", cfg.Order, len(lambda))
	}
	var s float64
	for _, l := range lambda {
		if l < 0 {
			return nil, fmt.Errorf("ngram: negative interpolation weight %v", l)
		}
		s += l
	}
	if math.Abs(s-1) > 1e-9 {
		return nil, fmt.Errorf("ngram: interpolation weights sum to %v, want 1", s)
	}
	m := &Model{
		Order:    cfg.Order,
		V:        cfg.V,
		AddK:     cfg.AddK,
		Lambda:   lambda,
		UniCount: make([]float64, cfg.V),
	}
	if cfg.Order >= 2 {
		m.BiCount = make(map[int][]float64)
		m.BiTotal = make(map[int]float64)
	}
	if cfg.Order >= 3 {
		m.TriCount = make(map[[2]int][]float64)
		m.TriTotal = make(map[[2]int]float64)
	}
	return m, nil
}

// Fit accumulates counts from the sequences. It may be called repeatedly to
// add more data. Token ids must lie in [0, V).
func (m *Model) Fit(sequences [][]int) error {
	for si, seq := range sequences {
		prev1, prev2 := BOS, BOS // prev1 = immediately previous
		for _, tok := range seq {
			if tok < 0 || tok >= m.V {
				return fmt.Errorf("ngram: sequence %d has token %d outside [0,%d)", si, tok, m.V)
			}
			m.UniCount[tok]++
			m.UniTotal++
			if m.Order >= 2 {
				row := m.BiCount[prev1]
				if row == nil {
					row = make([]float64, m.V)
					m.BiCount[prev1] = row
				}
				row[tok]++
				m.BiTotal[prev1]++
			}
			if m.Order >= 3 {
				key := [2]int{prev2, prev1}
				row := m.TriCount[key]
				if row == nil {
					row = make([]float64, m.V)
					m.TriCount[key] = row
				}
				row[tok]++
				m.TriTotal[key]++
			}
			prev2, prev1 = prev1, tok
		}
	}
	return nil
}

// prob1 is the add-k-smoothed unigram probability.
func (m *Model) prob1(tok int) float64 {
	return (m.UniCount[tok] + m.AddK) / (m.UniTotal + m.AddK*float64(m.V))
}

// prob2 is the add-k-smoothed bigram probability P(tok | prev).
func (m *Model) prob2(prev, tok int) float64 {
	row := m.BiCount[prev]
	var c, tot float64
	if row != nil {
		c = row[tok]
		tot = m.BiTotal[prev]
	}
	return (c + m.AddK) / (tot + m.AddK*float64(m.V))
}

// prob3 is the add-k-smoothed trigram probability P(tok | prev2, prev1).
func (m *Model) prob3(prev2, prev1, tok int) float64 {
	row := m.TriCount[[2]int{prev2, prev1}]
	var c, tot float64
	if row != nil {
		c = row[tok]
		tot = m.TriTotal[[2]int{prev2, prev1}]
	}
	return (c + m.AddK) / (tot + m.AddK*float64(m.V))
}

// Prob returns the interpolated probability of tok given the history
// (earlier tokens first). Missing history positions are treated as BOS.
func (m *Model) Prob(history []int, tok int) float64 {
	prev1, prev2 := BOS, BOS
	if n := len(history); n >= 1 {
		prev1 = history[n-1]
		if n >= 2 {
			prev2 = history[n-2]
		}
	}
	p := m.Lambda[0] * m.prob1(tok)
	if m.Order >= 2 {
		p += m.Lambda[1] * m.prob2(prev1, tok)
	}
	if m.Order >= 3 {
		p += m.Lambda[2] * m.prob3(prev2, prev1, tok)
	}
	return p
}

// Dist returns the full next-token distribution given a history.
func (m *Model) Dist(history []int) []float64 {
	out := make([]float64, m.V)
	for tok := 0; tok < m.V; tok++ {
		out[tok] = m.Prob(history, tok)
	}
	return out
}

// Perplexity computes the average per-token perplexity
// exp(-1/n Σ ln P(a_i | history)) over the sequences, the paper's measure.
// Empty corpora yield +Inf.
func (m *Model) Perplexity(sequences [][]int) float64 {
	var logSum float64
	var n int
	for _, seq := range sequences {
		for i, tok := range seq {
			logSum += math.Log(m.Prob(seq[:i], tok))
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Exp(-logSum / float64(n))
}

// gobModel mirrors Model for encoding (maps with array keys encode fine,
// but we keep an explicit struct to version the format).
type gobModel struct {
	Order    int
	V        int
	AddK     float64
	Lambda   []float64
	UniCount []float64
	UniTotal float64
	BiCount  map[int][]float64
	BiTotal  map[int]float64
	TriCount map[[2]int][]float64
	TriTotal map[[2]int]float64
}

// Save serializes the model into a checksummed snapshot container of kind
// KindModel.
func (m *Model) Save(w io.Writer) error {
	return snapshot.Write(w, KindModel, gobModel(*m))
}

// Load deserializes a model written by Save, rejecting containers whose
// payload decodes to an inconsistent model.
func Load(r io.Reader) (*Model, error) {
	var g gobModel
	if err := snapshot.Read(r, KindModel, &g); err != nil {
		return nil, fmt.Errorf("ngram: loading model: %w", err)
	}
	if g.Order < 1 || g.Order > 3 || g.V < 1 ||
		len(g.Lambda) != g.Order || len(g.UniCount) != g.V {
		return nil, fmt.Errorf("ngram: corrupt model (order %d, V %d)", g.Order, g.V)
	}
	for _, counts := range g.BiCount {
		if len(counts) != g.V {
			return nil, fmt.Errorf("ngram: corrupt bigram table")
		}
	}
	for _, counts := range g.TriCount {
		if len(counts) != g.V {
			return nil, fmt.Errorf("ngram: corrupt trigram table")
		}
	}
	m := Model(g)
	return &m, nil
}
