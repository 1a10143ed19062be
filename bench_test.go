package hiddenlayer

// One benchmark per table/figure of the paper's evaluation section, plus
// substrate micro-benchmarks. Each experiment bench runs the corresponding
// internal/eval driver at Quick scale, so `go test -bench=. -benchmem`
// regenerates every result in miniature; `cmd/ibeval -scale standard`
// produces the full-size numbers recorded in EXPERIMENTS.md.

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/rnn"
)

// benchCtx caches one Quick-scale context across benchmarks in a run.
var benchCtx *eval.Context

func getCtx(b *testing.B) *eval.Context {
	b.Helper()
	if benchCtx == nil {
		ctx, err := eval.NewContext(eval.Quick())
		if err != nil {
			b.Fatal(err)
		}
		benchCtx = ctx
	}
	return benchCtx
}

// BenchmarkSequentialityTest reproduces the Section 5 binomial n-gram test
// (paper: 69% of bigrams, 43% of trigrams significantly non-i.i.d.).
func BenchmarkSequentialityTest(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		res := eval.RunSequentialityTest(ctx)
		if res.Report.Bigrams == 0 {
			b.Fatal("no bigrams")
		}
	}
}

// BenchmarkTable1MinPerplexities regenerates Table 1: minimum perplexity per
// model family (paper: LDA 8.5 < LSTM 11.6 < n-grams 15.5 < unigram 19.5).
func BenchmarkTable1MinPerplexities(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		res, err := eval.RunTable1(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].Method != "LDA" {
			b.Fatalf("rank 1 = %s, want LDA (paper's headline)", res.Rows[0].Method)
		}
	}
}

// BenchmarkFigure1LSTMGrid regenerates Figure 1: LSTM test perplexity over
// the layers x hidden-size architecture grid.
func BenchmarkFigure1LSTMGrid(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFigure1(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2LDACurve regenerates Figure 2: LDA test perplexity versus
// topic count for binary and TF-IDF inputs.
func BenchmarkFigure2LDACurve(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure2(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.BestTopics > 4 {
			b.Fatalf("best topics %d, want 2-4", res.BestTopics)
		}
	}
}

// BenchmarkFigure3RecommenderSweep regenerates Figure 3: recall/F1 vs
// probability threshold for the LDA3, LSTM and CHH recommenders over
// sliding windows.
func BenchmarkFigure3RecommenderSweep(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure34(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Sweeps) != 4 {
			b.Fatal("missing sweeps")
		}
	}
}

// BenchmarkFigure4RetrievedCounts regenerates Figure 4 (same harness as
// Figure 3; counts are extracted from the sweep results).
func BenchmarkFigure4RetrievedCounts(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure34(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.Sweeps[0].Relevant.Mean <= 0 {
			b.Fatal("no ground truth")
		}
	}
}

// BenchmarkFigure5BPMFScores regenerates Figure 5: the distribution of BPMF
// recommendation scores (paper: squashed into [0.9, 1.0]).
func BenchmarkFigure5BPMFScores(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure5(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.Box.Median < 0.5 {
			b.Fatalf("BPMF median %v; degeneracy not reproduced", res.Box.Median)
		}
	}
}

// BenchmarkFigure6BPMFAccuracy regenerates Figure 6: BPMF accuracy versus
// recommendation-score threshold.
func BenchmarkFigure6BPMFAccuracy(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFigure6(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Silhouette regenerates Figure 7: silhouette curves for
// every company representation.
func BenchmarkFigure7Silhouette(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Curves) != 8 {
			b.Fatal("missing curves")
		}
	}
}

// BenchmarkFigure89TSNE regenerates Figures 8-9: t-SNE projections of the
// LDA3 and LDA4 product embeddings.
func BenchmarkFigure89TSNE(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure89(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.LDA3) != 38 {
			b.Fatal("missing points")
		}
	}
}

// BenchmarkCoclusterNote regenerates the Section 3.1 co-clustering
// observation.
func BenchmarkCoclusterNote(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunCoclusterNote(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGRUAblation regenerates the GRU-vs-LSTM comparison (paper §3.4).
func BenchmarkGRUAblation(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunGRUAblation(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowSizeAblation regenerates the sliding-window-size sweep
// (the paper's stated future work, r in 6..24 months).
func BenchmarkWindowSizeAblation(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunWindowSizeAblation(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCHHDepthAblation regenerates the CHH context-depth comparison.
func BenchmarkCHHDepthAblation(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunCHHDepthAblation(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmbeddingComparison regenerates the Section 3.4 word2vec
// extension: SGNS company embeddings vs LDA features on the clustering task.
func BenchmarkEmbeddingComparison(b *testing.B) {
	ctx := getCtx(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunEmbeddingComparison(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- substrate micro-benchmarks ----

// BenchmarkLSTMTrainingStep measures BPTT throughput (tokens/op reported as
// time; one op = one epoch over 100 sequences).
func BenchmarkLSTMTrainingStep(b *testing.B) {
	g := rng.New(1)
	seqs := make([][]int, 100)
	for i := range seqs {
		s := make([]int, 6)
		for j := range s {
			s[j] = g.Intn(38)
		}
		seqs[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rnn.Train(rnn.Config{V: 38, Layers: 1, Hidden: 100, Epochs: 1, Dropout: 0.5}, seqs, nil, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsWindowedObserve measures one observation into a rolling-window
// histogram — the per-request cost of the serving SLO layer. Must be
// zero-alloc: it sits on every request path when -slo is on.
func BenchmarkObsWindowedObserve(b *testing.B) {
	w := obs.NewRegistry().WindowedHistogram("bench_window_seconds", "", nil, 6)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0
		for pb.Next() {
			w.Observe(v)
			v += 1e-5
			if v > 10 {
				v = 0
			}
		}
	})
}

// BenchmarkObsWindowedRotate measures a window tick: clearing the next
// window and publishing it. Runs once per rotation interval, not per
// request, so absolute cost matters less than Observe's — but it must not
// allocate either.
func BenchmarkObsWindowedRotate(b *testing.B) {
	w := obs.NewRegistry().WindowedHistogram("bench_rotate_seconds", "", nil, 6)
	for i := 0; i < 1000; i++ {
		w.Observe(float64(i) * 1e-3)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Rotate()
	}
}
