package eval

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/lda"
	"repro/internal/ngram"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/rnn"
)

// evalRuns counts perplexity-driver executions; each driver also times
// itself into an eval_<name>_seconds span histogram.
var evalRuns = obs.Default().Counter("eval_experiments_total",
	"perplexity experiment driver executions")

// SeqTestResult reproduces the sequentiality analysis quoted in Section 5:
// the paper reports 69% of bigrams and 43% of trigrams significantly more
// frequent than under i.i.d. products.
type SeqTestResult struct {
	Report ngram.SequentialityReport
}

// RunSequentialityTest runs the binomial n-gram test on the full corpus.
func RunSequentialityTest(ctx *Context) SeqTestResult {
	defer obs.Start("eval.seqtest").End()
	evalRuns.Inc()
	return SeqTestResult{
		Report: ngram.TestSequentiality(ctx.Corpus.Sequences(), ctx.Corpus.M(), ctx.Scale.Alpha),
	}
}

// Figure2Result is the LDA perplexity curve (paper Figure 2): test-set
// perplexity versus number of latent topics for binary and TF-IDF inputs.
type Figure2Result struct {
	Topics      []int
	BinaryPerpl []float64
	TFIDFPerpl  []float64

	BestTopics int
	BestPerpl  float64
}

// RunFigure2 trains LDA on the training split for every topic count in the
// scale's grid, with both input variants, and evaluates fold-in perplexity
// on the test split.
func RunFigure2(ctx *Context) (*Figure2Result, error) {
	defer obs.Start("eval.figure2").End()
	evalRuns.Inc()
	trainDocs := ctx.Split.Train.Sets()
	testDocs := ctx.Split.Test.Sets()
	weights := ctx.Split.Train.TFIDFWeights()
	grid := ctx.Scale.LDATopicGrid
	// Pre-split the four per-k RNG streams (train-binary, perp-binary,
	// train-tfidf, perp-tfidf) in sequential grid order, then fan the topic
	// grid out across workers; results land index-stable so the curve and
	// the best-pick scan below are bit-identical at any worker count.
	type cellRNG struct{ trainBin, perpBin, trainTF, perpTF *rng.RNG }
	streams := make([]cellRNG, len(grid))
	for i := range grid {
		streams[i] = cellRNG{
			trainBin: ctx.RNG.Split(), perpBin: ctx.RNG.Split(),
			trainTF: ctx.RNG.Split(), perpTF: ctx.RNG.Split(),
		}
	}
	type cellOut struct{ pBin, pTF float64 }
	cells, err := par.Map(context.Background(), len(grid), func(i int) (cellOut, error) {
		k := grid[i]
		cfg := lda.Config{
			Topics: k, V: ctx.Corpus.M(),
			BurnIn: ctx.Scale.LDABurnIn, Iterations: ctx.Scale.LDAIters,
			InferIterations: ctx.Scale.LDAInfer,
		}
		mBin, err := lda.Train(cfg, trainDocs, nil, streams[i].trainBin)
		if err != nil {
			return cellOut{}, fmt.Errorf("eval: LDA binary k=%d: %w", k, err)
		}
		pBin := mBin.Perplexity(testDocs, streams[i].perpBin)
		mTF, err := lda.Train(cfg, trainDocs, weights, streams[i].trainTF)
		if err != nil {
			return cellOut{}, fmt.Errorf("eval: LDA tfidf k=%d: %w", k, err)
		}
		return cellOut{pBin: pBin, pTF: mTF.Perplexity(testDocs, streams[i].perpTF)}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{BestPerpl: math.Inf(1)}
	for i, k := range grid {
		res.Topics = append(res.Topics, k)
		res.BinaryPerpl = append(res.BinaryPerpl, cells[i].pBin)
		res.TFIDFPerpl = append(res.TFIDFPerpl, cells[i].pTF)
		if cells[i].pBin < res.BestPerpl {
			res.BestPerpl, res.BestTopics = cells[i].pBin, k
		}
	}
	return res, nil
}

// Figure1Result is the LSTM perplexity grid (paper Figure 1): test-set
// perplexity per (layers, hidden-size/embedding-size) architecture.
type Figure1Result struct {
	HiddenSizes []int
	Layers      []int
	Perpl       [][]float64 // [layerIdx][hiddenIdx]

	BestLayers, BestHidden int
	BestPerpl              float64
}

// RunFigure1 trains the paper's LSTM architecture grid on the time-ordered
// training sequences and evaluates perplexity on the test split.
func RunFigure1(ctx *Context) (*Figure1Result, error) {
	defer obs.Start("eval.figure1").End()
	evalRuns.Inc()
	trainSeqs := nonEmpty(ctx.Split.Train.Sequences())
	if trainCap := ctx.Scale.LSTMTrainCap; trainCap > 0 && len(trainSeqs) > trainCap {
		trainSeqs = trainSeqs[:trainCap]
	}
	validSeqs := nonEmpty(ctx.Split.Valid.Sequences())
	testSeqs := nonEmpty(ctx.Split.Test.Sequences())
	res := &Figure1Result{
		HiddenSizes: ctx.Scale.LSTMHiddenGrid,
		Layers:      ctx.Scale.LSTMLayersGrid,
		BestPerpl:   math.Inf(1),
	}
	// Flatten the layers x hidden grid into cells, pre-split one training
	// stream per cell in the nested (layers outer, hidden inner) order the
	// sequential loop consumed them, and fan the architectures out across
	// workers. The best-pick scan runs after, in grid order, so the strict
	// `<` first-wins tie-break is preserved.
	type cell struct {
		layers, hidden int
		stream         *rng.RNG
	}
	var cells []cell
	for _, layers := range ctx.Scale.LSTMLayersGrid {
		for _, hidden := range ctx.Scale.LSTMHiddenGrid {
			cells = append(cells, cell{layers: layers, hidden: hidden, stream: ctx.RNG.Split()})
		}
	}
	perpl, err := par.Map(context.Background(), len(cells), func(i int) (float64, error) {
		cfg := rnn.Config{
			V: ctx.Corpus.M(), Layers: cells[i].layers, Hidden: cells[i].hidden,
			Dropout: ctx.Scale.LSTMDropout, Epochs: ctx.Scale.LSTMEpochs,
		}
		m, _, err := rnn.Train(cfg, trainSeqs, validSeqs, cells[i].stream)
		if err != nil {
			return 0, fmt.Errorf("eval: LSTM %dx%d: %w", cells[i].layers, cells[i].hidden, err)
		}
		return m.Perplexity(testSeqs), nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		if i%len(ctx.Scale.LSTMHiddenGrid) == 0 {
			res.Perpl = append(res.Perpl, nil)
		}
		ri := len(res.Perpl) - 1
		res.Perpl[ri] = append(res.Perpl[ri], perpl[i])
		if perpl[i] < res.BestPerpl {
			res.BestPerpl, res.BestLayers, res.BestHidden = perpl[i], c.layers, c.hidden
		}
	}
	return res, nil
}

func nonEmpty(seqs [][]int) [][]int {
	out := seqs[:0:0]
	for _, s := range seqs {
		if len(s) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Rank          int
	Method        string
	MinPerplexity float64
}

// Table1Result is the paper's Table 1: minimum perplexity per model family,
// ranked best first. The paper reports LDA 8.5 < LSTM 11.6 < n-grams 15.5 <
// unigram bag-of-words 19.5.
type Table1Result struct {
	Rows []Table1Row

	Figure1 *Figure1Result
	Figure2 *Figure2Result
}

// RunTable1 computes the best perplexity of each family: the LDA topic grid
// (binary input), the LSTM architecture grid, interpolated bi-/trigram
// models, and the unigram bag-of-words baseline.
func RunTable1(ctx *Context) (*Table1Result, error) {
	defer obs.Start("eval.table1").End()
	evalRuns.Inc()
	fig2, err := RunFigure2(ctx)
	if err != nil {
		return nil, err
	}
	fig1, err := RunFigure1(ctx)
	if err != nil {
		return nil, err
	}
	trainSeqs := nonEmpty(ctx.Split.Train.Sequences())
	testSeqs := nonEmpty(ctx.Split.Test.Sequences())
	ngramBest := math.Inf(1)
	for _, order := range []int{2, 3} {
		m, err := ngram.New(ngram.Config{Order: order, V: ctx.Corpus.M()})
		if err != nil {
			return nil, err
		}
		if err := m.Fit(trainSeqs); err != nil {
			return nil, err
		}
		if p := m.Perplexity(testSeqs); p < ngramBest {
			ngramBest = p
		}
	}
	uni, err := ngram.New(ngram.Config{Order: 1, V: ctx.Corpus.M()})
	if err != nil {
		return nil, err
	}
	if err := uni.Fit(trainSeqs); err != nil {
		return nil, err
	}
	uniPerpl := uni.Perplexity(testSeqs)

	rows := []Table1Row{
		{Method: "LDA", MinPerplexity: fig2.BestPerpl},
		{Method: "LSTM", MinPerplexity: fig1.BestPerpl},
		{Method: "N-grams", MinPerplexity: ngramBest},
		{Method: "Unigram 'bag of words'", MinPerplexity: uniPerpl},
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].MinPerplexity < rows[j].MinPerplexity })
	for i := range rows {
		rows[i].Rank = i + 1
	}
	return &Table1Result{Rows: rows, Figure1: fig1, Figure2: fig2}, nil
}
