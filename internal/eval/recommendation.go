package eval

import (
	"fmt"
	"math"

	"repro/internal/bpmf"
	"repro/internal/chh"
	"repro/internal/corpus"
	"repro/internal/lda"
	"repro/internal/recommend"
	"repro/internal/rnn"
	"repro/internal/stats"
)

// Figure34Result holds the recommendation sweeps behind the paper's
// Figures 3 (recall/F1 vs phi) and 4 (retrieval counts vs phi) for the
// LDA3, LSTM and CHH recommenders plus the random baseline.
type Figure34Result struct {
	Sweeps []*recommend.SweepResult // LDA3, LSTM, CHH, random
}

// RunFigure34 evaluates the three recommenders over the sliding windows.
// LDA and CHH retrain per window (cheap); the LSTM trains once on the data
// before the first window and is reused, since per-window retraining of the
// grid's best architecture dominates runtime without changing the paper's
// qualitative outcome.
func RunFigure34(ctx *Context) (*Figure34Result, error) {
	phis := recommend.DefaultPhiGrid(ctx.Scale.PhiMax)
	spec := ctx.Scale.Windows
	c := ctx.Corpus
	var res Figure34Result

	// LDA3 recommender: topic mixture from the pre-window ownership set.
	ldaTrain := func(tc *corpus.Corpus, _ corpus.Month) (recommend.Recommender, error) {
		g := ctx.RNG.Split()
		m, err := lda.Train(lda.Config{
			Topics: 3, V: tc.M(),
			BurnIn: ctx.Scale.LDABurnIn, Iterations: ctx.Scale.LDAIters,
			InferIterations: ctx.Scale.LDAInfer,
		}, nonEmpty(tc.Sets()), nil, g)
		if err != nil {
			return nil, err
		}
		return recommend.LDA(m, g), nil
	}
	sweep, err := recommend.EvaluateSweep(c, spec, phis, ldaTrain)
	if err != nil {
		return nil, fmt.Errorf("eval: LDA sweep: %w", err)
	}
	res.Sweeps = append(res.Sweeps, sweep)

	// LSTM recommender: best paper architecture family (1 layer); trained
	// once on pre-first-window data.
	var cachedLSTM recommend.Recommender
	lstmTrain := func(tc *corpus.Corpus, _ corpus.Month) (recommend.Recommender, error) {
		if cachedLSTM != nil {
			return cachedLSTM, nil
		}
		hidden := ctx.Scale.LSTMHiddenGrid[len(ctx.Scale.LSTMHiddenGrid)-1]
		seqs := nonEmpty(tc.Sequences())
		if trainCap := ctx.Scale.LSTMTrainCap; trainCap > 0 && len(seqs) > trainCap {
			seqs = seqs[:trainCap]
		}
		m, _, err := rnn.Train(rnn.Config{
			V: tc.M(), Layers: 1, Hidden: hidden,
			Dropout: ctx.Scale.LSTMDropout, Epochs: ctx.Scale.LSTMEpochs,
		}, seqs, nil, ctx.RNG.Split())
		if err != nil {
			return nil, err
		}
		cachedLSTM = recommend.LSTM(m)
		return cachedLSTM, nil
	}
	sweep, err = recommend.EvaluateSweep(c, spec, phis, lstmTrain)
	if err != nil {
		return nil, fmt.Errorf("eval: LSTM sweep: %w", err)
	}
	res.Sweeps = append(res.Sweeps, sweep)

	// CHH recommender, context depth 2 as chosen in the paper.
	chhTrain := func(tc *corpus.Corpus, _ corpus.Month) (recommend.Recommender, error) {
		m, err := chh.NewExact(tc.M(), 2)
		if err != nil {
			return nil, err
		}
		if err := m.Fit(nonEmpty(tc.Sequences())); err != nil {
			return nil, err
		}
		return recommend.CHH(m), nil
	}
	sweep, err = recommend.EvaluateSweep(c, spec, phis, chhTrain)
	if err != nil {
		return nil, fmt.Errorf("eval: CHH sweep: %w", err)
	}
	res.Sweeps = append(res.Sweeps, sweep)

	// Random-uniform baseline (paper: retrieves everything below 1/38).
	sweep, err = recommend.EvaluateSweep(c, spec, phis, func(tc *corpus.Corpus, _ corpus.Month) (recommend.Recommender, error) {
		return recommend.Uniform(tc.M()), nil
	})
	if err != nil {
		return nil, fmt.Errorf("eval: random sweep: %w", err)
	}
	res.Sweeps = append(res.Sweeps, sweep)
	return &res, nil
}

// Figure5Result summarizes the BPMF predictive-score distribution (paper
// Figure 5: a boxplot squashed into [0.9, 1.0]).
type Figure5Result struct {
	Box        stats.Boxplot
	FracAbove9 float64 // fraction of scores above 0.9
	Scores     int     // number of scores summarized
}

// RunFigure5 trains BPMF on the ranking (binary ownership) matrix of the
// training era and reports the distribution of its predictive scores.
func RunFigure5(ctx *Context) (*Figure5Result, error) {
	m, err := trainBPMF(ctx, ctx.Corpus.TruncateBefore(ctx.Scale.Windows.Start))
	if err != nil {
		return nil, err
	}
	scores := m.ScoreDistribution()
	var above int
	for _, s := range scores {
		if s > 0.9 {
			above++
		}
	}
	return &Figure5Result{
		Box:        stats.BoxplotStats(scores),
		FracAbove9: float64(above) / float64(len(scores)),
		Scores:     len(scores),
	}, nil
}

func trainBPMF(ctx *Context, tc *corpus.Corpus) (*bpmf.Model, error) {
	var ratings []bpmf.Rating
	for i := range tc.Companies {
		for _, a := range tc.Companies[i].Acquisitions {
			ratings = append(ratings, bpmf.Rating{User: i, Item: a.Category, Value: 1})
		}
	}
	return bpmf.Train(bpmf.Config{
		Rank: ctx.Scale.BPMFRank, Alpha: ctx.Scale.BPMFAlpha,
		Burn: ctx.Scale.BPMFBurn, Samples: ctx.Scale.BPMFSamples,
	}, tc.N(), tc.M(), ratings, ctx.RNG.Split())
}

// Figure6Result is the BPMF accuracy sweep over recommendation-score
// thresholds in [0.90, 0.99] (paper Figure 6: flat curves, everything
// recommended, until collapse).
type Figure6Result struct {
	Sweep *recommend.SweepResult
}

// RunFigure6 evaluates the BPMF recommender on the sliding windows with the
// paper's score-threshold grid.
func RunFigure6(ctx *Context) (*Figure6Result, error) {
	var phis []float64
	for t := 0.90; t <= 0.99+1e-9; t += 0.01 {
		phis = append(phis, math.Round(t*100)/100)
	}
	train := func(tc *corpus.Corpus, _ corpus.Month) (recommend.RowRecommender, error) {
		m, err := trainBPMF(ctx, tc)
		if err != nil {
			return nil, err
		}
		return bpmfRows{m}, nil
	}
	sweep, err := recommend.EvaluateSweepRows(ctx.Corpus, ctx.Scale.Windows, phis, train)
	if err != nil {
		return nil, fmt.Errorf("eval: BPMF sweep: %w", err)
	}
	return &Figure6Result{Sweep: sweep}, nil
}

type bpmfRows struct{ m *bpmf.Model }

func (b bpmfRows) Name() string { return "BPMF" }
func (b bpmfRows) ScoresFor(row int, _ []int) []float64 {
	out := make([]float64, b.m.M)
	copy(out, b.m.Scores.Row(row))
	return out
}

// ConcurrencySafe marks the row scorer parallel-safe: it only copies rows of
// the trained score matrix.
func (b bpmfRows) ConcurrencySafe() bool { return true }
