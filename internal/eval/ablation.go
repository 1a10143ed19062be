package eval

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/chh"
	"repro/internal/corpus"
	"repro/internal/lda"
	"repro/internal/recommend"
	"repro/internal/rnn"
	"repro/internal/stats"
)

// GRUAblationRow compares GRU and LSTM test perplexity at one architecture.
type GRUAblationRow struct {
	Hidden                int
	LSTMPerpl, GRUPerpl   float64
	LSTMParams, GRUParams int
}

// GRUAblationResult reproduces the paper's Section 3.4 discussion: GRUs
// (Chung et al. 2014) are simpler than LSTMs and can win on some datasets
// but "do not outperform LSTM in general" (Greff et al. 2016). The ablation
// trains both cells at identical widths on the same data.
type GRUAblationResult struct {
	Rows []GRUAblationRow
}

// RunGRUAblation trains 1-layer LSTM and GRU models across the scale's
// hidden-size grid and compares test perplexity.
func RunGRUAblation(ctx *Context) (*GRUAblationResult, error) {
	trainSeqs := nonEmpty(ctx.Split.Train.Sequences())
	if trainCap := ctx.Scale.LSTMTrainCap; trainCap > 0 && len(trainSeqs) > trainCap {
		trainSeqs = trainSeqs[:trainCap]
	}
	testSeqs := nonEmpty(ctx.Split.Test.Sequences())
	res := &GRUAblationResult{}
	for _, hidden := range ctx.Scale.LSTMHiddenGrid {
		lm, _, err := rnn.Train(rnn.Config{
			V: ctx.Corpus.M(), Layers: 1, Hidden: hidden,
			Dropout: ctx.Scale.LSTMDropout, Epochs: ctx.Scale.LSTMEpochs,
		}, trainSeqs, nil, ctx.RNG.Split())
		if err != nil {
			return nil, fmt.Errorf("eval: LSTM h=%d: %w", hidden, err)
		}
		gm, _, err := rnn.Train(rnn.Config{
			Cell: rnn.GRU, V: ctx.Corpus.M(), Layers: 1, Hidden: hidden,
			Dropout: ctx.Scale.LSTMDropout, Epochs: ctx.Scale.LSTMEpochs,
		}, trainSeqs, nil, ctx.RNG.Split())
		if err != nil {
			return nil, fmt.Errorf("eval: GRU h=%d: %w", hidden, err)
		}
		res.Rows = append(res.Rows, GRUAblationRow{
			Hidden:     hidden,
			LSTMPerpl:  lm.Perplexity(testSeqs),
			GRUPerpl:   gm.Perplexity(testSeqs),
			LSTMParams: lm.ParameterCount(),
			GRUParams:  gm.ParameterCount(),
		})
	}
	return res, nil
}

// Render formats the GRU-vs-LSTM comparison.
func (r *GRUAblationResult) Render() string {
	var b strings.Builder
	b.WriteString("GRU vs LSTM ablation (paper Section 3.4; 1 hidden layer, same data)\n")
	b.WriteString("  hidden   LSTM perpl (params)    GRU perpl (params)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6d   %10.2f (%6d)   %9.2f (%6d)\n",
			row.Hidden, row.LSTMPerpl, row.LSTMParams, row.GRUPerpl, row.GRUParams)
	}
	return b.String()
}

// WindowSizeRow is one sweep entry of the window-size ablation.
type WindowSizeRow struct {
	Months int
	Recall stats.CI // at the reference threshold
	F1     stats.CI
}

// WindowSizeResult is the paper's stated future work ("we will study the
// influence of the sliding window size on the recommendation accuracy"):
// the LDA3 recommender evaluated for window lengths spanning the paper's
// 6-24 month span of interest, at a fixed reference threshold.
type WindowSizeResult struct {
	Phi  float64
	Rows []WindowSizeRow
}

// RunWindowSizeAblation sweeps the window length r over {6, 12, 18, 24}
// months with the scale's window start/count and phi = 0.10.
func RunWindowSizeAblation(ctx *Context) (*WindowSizeResult, error) {
	const phi = 0.10
	res := &WindowSizeResult{Phi: phi}
	ldaTrain := func(tc *corpus.Corpus, _ corpus.Month) (recommend.Recommender, error) {
		g := ctx.RNG.Split()
		m, err := lda.Train(lda.Config{
			Topics: 3, V: tc.M(),
			BurnIn: ctx.Scale.LDABurnIn, Iterations: ctx.Scale.LDAIters,
			InferIterations: ctx.Scale.LDAInfer,
		}, tc.Sets(), nil, g)
		if err != nil {
			return nil, err
		}
		return recommend.LDA(m, g), nil
	}
	for _, months := range []int{6, 12, 18, 24} {
		spec := ctx.Scale.Windows
		spec.Length = months
		sweep, err := recommend.EvaluateSweep(ctx.Corpus, spec, []float64{phi}, ldaTrain)
		if err != nil {
			return nil, fmt.Errorf("eval: window %dmo: %w", months, err)
		}
		res.Rows = append(res.Rows, WindowSizeRow{
			Months: months,
			Recall: sweep.Recall[0],
			F1:     sweep.F1[0],
		})
	}
	return res, nil
}

// Render formats the window-size sweep.
func (r *WindowSizeResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Window-size ablation (paper future work; LDA3 recommender, phi=%.2f)\n", r.Phi)
	b.WriteString("  window    recall (95% CI)         F1\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %4d mo   %.3f [%.3f, %.3f]   %.3f\n",
			row.Months, row.Recall.Mean, row.Recall.Lo, row.Recall.Hi, f1OrNaN(row.F1))
	}
	return b.String()
}

func f1OrNaN(ci stats.CI) float64 {
	if math.IsNaN(ci.Mean) {
		return math.NaN()
	}
	return ci.Mean
}

// CHHDepthRow compares CHH context depths at one threshold.
type CHHDepthRow struct {
	Phi              float64
	Recall1, Recall2 float64
	F11, F12         float64
}

// CHHDepthResult justifies the paper's choice of context depth 2 for the
// Conditional-Heavy-Hitter recommender by comparing depth 1 and depth 2
// over the threshold grid.
type CHHDepthResult struct {
	Rows []CHHDepthRow
}

// RunCHHDepthAblation evaluates depth-1 and depth-2 CHH recommenders.
func RunCHHDepthAblation(ctx *Context) (*CHHDepthResult, error) {
	phis := recommend.DefaultPhiGrid(ctx.Scale.PhiMax)
	train := func(depth int) recommend.TrainFunc {
		return func(tc *corpus.Corpus, _ corpus.Month) (recommend.Recommender, error) {
			m, err := chh.NewExact(tc.M(), depth)
			if err != nil {
				return nil, err
			}
			if err := m.Fit(nonEmpty(tc.Sequences())); err != nil {
				return nil, err
			}
			return recommend.CHH(m), nil
		}
	}
	s1, err := recommend.EvaluateSweep(ctx.Corpus, ctx.Scale.Windows, phis, train(1))
	if err != nil {
		return nil, err
	}
	s2, err := recommend.EvaluateSweep(ctx.Corpus, ctx.Scale.Windows, phis, train(2))
	if err != nil {
		return nil, err
	}
	res := &CHHDepthResult{}
	for i, phi := range phis {
		res.Rows = append(res.Rows, CHHDepthRow{
			Phi:     phi,
			Recall1: s1.Recall[i].Mean, Recall2: s2.Recall[i].Mean,
			F11: s1.F1[i].Mean, F12: s2.F1[i].Mean,
		})
	}
	return res, nil
}

// Render formats the CHH-depth comparison.
func (r *CHHDepthResult) Render() string {
	var b strings.Builder
	b.WriteString("CHH context-depth ablation (paper chooses depth 2)\n")
	b.WriteString("    phi   recall d1  recall d2   F1 d1   F1 d2\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %5.2f   %9.3f  %9.3f   %5.3f   %5.3f\n",
			row.Phi, row.Recall1, row.Recall2, row.F11, row.F12)
	}
	return b.String()
}
