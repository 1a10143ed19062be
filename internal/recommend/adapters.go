package recommend

import (
	"strconv"

	"repro/internal/bpmf"
	"repro/internal/chh"
	"repro/internal/lda"
	"repro/internal/ngram"
	"repro/internal/rng"
	"repro/internal/rnn"
)

// LDA adapts a trained LDA model: the company's topic mixture is inferred
// from its owned products (order-free, matching LDA's exchangeability) and
// every category is scored by P(category | theta). NOT marked Concurrent:
// theta inference draws from the shared RNG, so concurrent scoring would
// both race and consume the stream in scheduling order.
func LDA(m *lda.Model, g *rng.RNG) Recommender {
	return &Static{
		Label: "LDA" + strconv.Itoa(m.K),
		Fn: func(history []int) []float64 {
			theta := m.InferTheta(history, g)
			return m.WordDist(theta)
		},
	}
}

// LSTM adapts a trained LSTM language model: the next-product softmax after
// consuming the time-ordered history. NextDist allocates fresh state per
// call and only reads the trained weights, so it is concurrency-safe.
func LSTM(m *rnn.Model) Recommender {
	return &Static{
		Label:      "LSTM",
		Fn:         m.NextDist,
		Concurrent: true,
	}
}

// Ngram adapts an n-gram language model. Dist only reads the count tables.
func Ngram(m *ngram.Model) Recommender {
	label := [4]string{"", "unigram", "bigram", "trigram"}[m.Order]
	return &Static{
		Label:      label,
		Fn:         m.Dist,
		Concurrent: true,
	}
}

// CHH adapts an exact Conditional-Heavy-Hitters model: the conditional
// next-product distribution given the last one or two acquisitions. Dist
// only reads the trained tables.
func CHH(m *chh.Exact) Recommender {
	return &Static{
		Label:      "CHH",
		Fn:         m.Dist,
		Concurrent: true,
	}
}

// BPMFForRow scores all categories for one company row of a trained BPMF
// model. Matrix-factorization scores are positional (per company row), not
// history-based, so BPMF recommenders are built per company; the harness
// for the paper's Figure 6 sweeps score thresholds directly over these
// per-row predictive scores.
func BPMFForRow(m *bpmf.Model, row int) Recommender {
	return &Static{
		Label:      "BPMF",
		Concurrent: true,
		Fn: func([]int) []float64 {
			out := make([]float64, m.M)
			copy(out, m.Scores.Row(row))
			return out
		},
	}
}
