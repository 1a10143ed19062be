// Command ibtrain trains one of the paper's model families on a corpus and
// persists it as a checksummed snapshot file.
//
// Usage:
//
//	ibtrain -model lda   -topics 3 -corpus corpus.jsonl -out lda3.gob
//	ibtrain -model lstm  -layers 1 -hidden 200 -epochs 14 -corpus corpus.jsonl -out lstm.gob
//	ibtrain -model gru   -layers 1 -hidden 200 -epochs 14 -corpus corpus.jsonl -out gru.gob
//	ibtrain -model sgns  -dim 32 -epochs 5 -corpus corpus.jsonl -out sgns.gob
//	ibtrain -model ngram -order 2 -corpus corpus.jsonl -out bigram.gob
//	ibtrain -model chh   -depth 2 -corpus corpus.jsonl -out chh.gob
//	ibtrain -model bpmf  -rank 8 -corpus corpus.jsonl -out bpmf.gob
//
// Every model prints its held-out perplexity (where defined) on a 70/10/20
// split so runs are comparable with the paper's Table 1.
//
// Crash safety: the model (and any checkpoint) is written atomically — to a
// fsynced temp file renamed over the destination — only after training
// succeeds, so an aborted run never clobbers or truncates an existing model.
// For the iterative trainers (lda, lstm, gru, sgns, bpmf) SIGINT/SIGTERM is
// trapped: the current epoch finishes, a final checkpoint is written to
// -checkpoint (default: the -out path plus ".ckpt"), and the process exits
// cleanly. -checkpoint-every N additionally writes a checkpoint every N
// epochs/sweeps. A run restarted with -resume <ckpt> — same corpus, seed and
// hyperparameters — continues where it stopped and produces a model
// byte-identical to an uninterrupted run; the model family is inferred from
// the checkpoint file itself.
//
// Observability: -debug-addr serves /metrics (Prometheus text format),
// /metrics.json, /debug/vars, /debug/pprof and /debug/traces on a side
// listener while training runs; -progress logs one structured line per
// training iteration; -metrics-out writes a final JSON metrics snapshot next
// to the model so benchmark runs leave a machine-readable trace. -trace
// records the run as a span tree (one child span per epoch/sweep and per
// checkpoint write) and -trace-out writes that tree as JSON next to the
// model, forcing tracing on with full retention and a raised span cap so
// long schedules keep every epoch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/bpmf"
	"repro/internal/chh"
	"repro/internal/corpus"
	"repro/internal/lda"
	"repro/internal/ngram"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/rnn"
	"repro/internal/sgns"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

var logger *slog.Logger

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

// saver is satisfied by every model family.
type saver interface{ Save(w io.Writer) error }

// writeModel atomically places the serialized model at path.
func writeModel(path string, m saver) {
	if err := snapshot.Atomic(path, m.Save); err != nil {
		fatal(err)
	}
}

// ckptHook returns a Checkpoint callback that atomically writes each
// snapshot to path. CK is the family's *Checkpoint type.
func ckptHook[CK saver](path string) func(CK) error {
	return func(ck CK) error {
		if err := snapshot.Atomic(path, ck.Save); err != nil {
			return err
		}
		logger.Info("checkpoint written", "path", path)
		return nil
	}
}

// loadCkpt opens path and decodes it with the family's LoadCheckpoint.
func loadCkpt[CK any](path string, load func(io.Reader) (CK, error)) CK {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	ck, err := load(f)
	if err != nil {
		fatal(fmt.Errorf("loading checkpoint %s: %w", path, err))
	}
	return ck
}

// checkTrainErr distinguishes a clean interruption (the trainer already
// wrote its final checkpoint through the hook) from a real failure.
func checkTrainErr(err error, ckptPath string) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) {
		logger.Info("training interrupted", "checkpoint", ckptPath)
		fmt.Printf("training interrupted: checkpoint written to %s (continue with -resume %s)\n", ckptPath, ckptPath)
		os.Exit(0)
	}
	fatal(err)
}

// checkpointFamilies maps snapshot kinds to the -model value they resume.
var checkpointFamilies = map[string]string{
	lda.KindCheckpoint:        "lda",
	rnn.LSTM.KindCheckpoint(): "lstm",
	rnn.GRU.KindCheckpoint():  "gru",
	sgns.KindCheckpoint:       "sgns",
	bpmf.KindCheckpoint:       "bpmf",
}

func main() {
	var (
		model      = flag.String("model", "lda", "model family: lda | lstm | gru | sgns | ngram | chh | bpmf")
		corpusPath = flag.String("corpus", "corpus.jsonl", "input corpus (JSONL)")
		out        = flag.String("out", "model.gob", "output model path")
		seed       = flag.Int64("seed", 1, "training seed")

		topics  = flag.Int("topics", 3, "lda: number of latent topics")
		tfidf   = flag.Bool("tfidf", false, "lda: use TF-IDF token weights instead of binary input")
		snapFmt = flag.String("snapshot-format", "v2", "lda: model container format: v2 (flat, mmap zero-copy load) | v1 (legacy gob, for v1-only readers)")

		layers  = flag.Int("layers", 1, "lstm/gru: hidden layers (1-3)")
		hidden  = flag.Int("hidden", 200, "lstm/gru: nodes per layer / embedding size")
		epochs  = flag.Int("epochs", 14, "lstm/gru/sgns: training epochs")
		dropout = flag.Float64("dropout", 0.2, "lstm/gru: dropout probability")

		dim   = flag.Int("dim", 32, "sgns: embedding dimensionality")
		order = flag.Int("order", 2, "ngram: model order (1-3)")
		depth = flag.Int("depth", 2, "chh: context depth (1-2)")
		rank  = flag.Int("rank", 8, "bpmf: latent rank")

		ckptPath  = flag.String("checkpoint", "", "checkpoint path (default: -out path plus .ckpt)")
		ckptEvery = flag.Int("checkpoint-every", 0, "write a checkpoint every N epochs/sweeps (0 = only on interrupt)")
		resume    = flag.String("resume", "", "resume training from this checkpoint; the model family is inferred from the file")

		metricsOut = flag.String("metrics-out", "", "write a final JSON metrics snapshot to this path")
		traceOut   = flag.String("trace-out", "", "write the training trace tree as JSON to this path (forces -trace with full retention)")
	)
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for parallel grids/scans (deterministic at any value)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	traceFlags := trace.BindFlags(flag.CommandLine)
	flag.Parse()
	par.SetWorkers(*workers)
	traceFlags.Apply(trace.Default())
	if *traceOut != "" {
		// The file sink must not lose its trace to tail sampling, and long
		// schedules need more than the default span cap to keep every epoch.
		trace.Default().SetEnabled(true)
		trace.Default().SetSampleRate(1)
		trace.Default().SetMaxSpans(8192)
	}

	var stopDebug func()
	logger, stopDebug = obsFlags.Init("ibtrain", trace.Routes(trace.Default())...)
	defer stopDebug()

	if *resume != "" {
		kind, err := snapshot.FileKind(*resume)
		if err != nil {
			fatal(fmt.Errorf("reading checkpoint %s: %w", *resume, err))
		}
		fam, ok := checkpointFamilies[kind]
		if !ok {
			fatal(fmt.Errorf("%s holds %q, not a training checkpoint", *resume, kind))
		}
		if *model != fam {
			logger.Info("model family inferred from checkpoint", "family", fam)
		}
		*model = fam
	}

	// Validate the model name before touching the corpus, so a typo fails
	// fast instead of after a potentially slow JSONL load.
	switch *model {
	case "lda", "lstm", "gru", "sgns", "ngram", "chh", "bpmf":
	default:
		fmt.Fprintf(os.Stderr, "ibtrain: unknown model %q (want lda|lstm|gru|sgns|ngram|chh|bpmf)\n", *model)
		fmt.Fprintln(os.Stderr, "usage: ibtrain -model lda|lstm|gru|sgns|ngram|chh|bpmf [flags]; run with -help for the full flag list")
		os.Exit(2)
	}

	if *ckptPath == "" {
		*ckptPath = *out + ".ckpt"
	}

	// SIGINT/SIGTERM cancel the training context; the trainers notice at the
	// next epoch boundary, write a final checkpoint and return
	// context.Canceled, which checkTrainErr turns into a clean exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The whole run becomes one trace rooted here; the trainers hang their
	// per-epoch/per-sweep and checkpoint spans off the ctx.
	ctx, root := trace.Default().Start(ctx, "ibtrain.train")
	root.Attr("model", *model)

	var progress obs.Progress
	if obsFlags.Progress {
		progress = obs.SlogProgress(logger)
	}

	c, err := corpus.LoadFile(*corpusPath)
	if err != nil {
		fatal(err)
	}
	logger.Debug("corpus loaded", "path", *corpusPath, "companies", c.N(), "categories", c.M())
	g := rng.New(*seed)
	// The split is a pure function of (corpus, seed), so a resumed run with
	// the same -corpus and -seed trains on the identical partition; the
	// trainer's own RNG state comes from the checkpoint.
	split, err := corpus.PaperSplit(c, g)
	if err != nil {
		fatal(err)
	}

	switch *model {
	case "lda":
		var weights [][]float64
		if *tfidf {
			weights = split.Train.TFIDFWeights()
		}
		cfg := lda.Config{
			Topics: *topics, V: c.M(), Progress: progress,
			Checkpoint: ckptHook[*lda.Checkpoint](*ckptPath), CheckpointEvery: *ckptEvery,
		}
		var m *lda.Model
		if *resume != "" {
			ck := loadCkpt(*resume, lda.LoadCheckpoint)
			m, err = lda.Resume(ctx, ck, split.Train.Sets(), weights, cfg)
		} else {
			m, err = lda.TrainContext(ctx, cfg, split.Train.Sets(), weights, g)
		}
		checkTrainErr(err, *ckptPath)
		fmt.Printf("LDA%d test perplexity: %.2f (parameters: %d)\n",
			m.K, m.Perplexity(split.Test.Sets(), g), m.ParameterCount())
		// The LDA family has two container generations: v2 (the default,
		// flat sections, mmap zero-copy load in ibserve) and v1 gob for
		// fleets still running v1-only readers. Loaders sniff the version,
		// so either file works with current ibserve/ibrec.
		switch *snapFmt {
		case "v2":
			writeModel(*out, m)
		case "v1":
			if err := snapshot.Atomic(*out, m.SaveV1); err != nil {
				fatal(err)
			}
		default:
			fatal(fmt.Errorf("-snapshot-format %q: want v1 or v2", *snapFmt))
		}
	case "lstm", "gru":
		cell := rnn.LSTM
		if *model == "gru" {
			cell = rnn.GRU
		}
		cfg := rnn.Config{
			Cell: cell, V: c.M(), Layers: *layers, Hidden: *hidden,
			Dropout: *dropout, Epochs: *epochs, Progress: progress,
			Checkpoint: ckptHook[*rnn.Checkpoint](*ckptPath), CheckpointEvery: *ckptEvery,
		}
		var m *rnn.Model
		var stats rnn.TrainStats
		if *resume != "" {
			ck := loadCkpt(*resume, rnn.LoadCheckpoint)
			m, stats, err = rnn.Resume(ctx, ck, split.Train.Sequences(), split.Valid.Sequences(), cfg)
		} else {
			m, stats, err = rnn.TrainContext(ctx, cfg, split.Train.Sequences(), split.Valid.Sequences(), g)
		}
		checkTrainErr(err, *ckptPath)
		for e, p := range stats.ValidPerpl {
			fmt.Printf("epoch %2d: train NLL %.3f, valid perplexity %.2f\n", e+1, stats.TrainLoss[e], p)
		}
		fmt.Printf("%s %dx%d test perplexity: %.2f (parameters: %d)\n", strings.ToUpper(*model),
			m.Layers, m.Hidden, m.Perplexity(split.Test.Sequences()), m.ParameterCount())
		writeModel(*out, m)
	case "sgns":
		cfg := sgns.Config{
			V: c.M(), Dim: *dim, Epochs: *epochs, Progress: progress,
			Checkpoint: ckptHook[*sgns.Checkpoint](*ckptPath), CheckpointEvery: *ckptEvery,
		}
		var m *sgns.Model
		if *resume != "" {
			ck := loadCkpt(*resume, sgns.LoadCheckpoint)
			m, err = sgns.Resume(ctx, ck, split.Train.Sets(), cfg)
		} else {
			m, err = sgns.TrainContext(ctx, cfg, split.Train.Sets(), g)
		}
		checkTrainErr(err, *ckptPath)
		fmt.Printf("SGNS dim %d: trained %d product embeddings\n", m.Dim, m.V)
		writeModel(*out, m)
	case "ngram":
		m, err := ngram.New(ngram.Config{Order: *order, V: c.M()})
		if err != nil {
			fatal(err)
		}
		if err := m.Fit(split.Train.Sequences()); err != nil {
			fatal(err)
		}
		fmt.Printf("%d-gram test perplexity: %.2f\n", *order, m.Perplexity(split.Test.Sequences()))
		writeModel(*out, m)
	case "chh":
		m, err := chh.NewExact(c.M(), *depth)
		if err != nil {
			fatal(err)
		}
		if err := m.Fit(split.Train.Sequences()); err != nil {
			fatal(err)
		}
		hh := m.HeavyHitters(0.2, 50)
		fmt.Printf("CHH depth %d: %d heavy hitters at phi=0.2, support>=50\n", *depth, len(hh))
		for i, h := range hh {
			if i >= 10 {
				break
			}
			fmt.Printf("  %v -> %s (p=%.2f, support %.0f)\n",
				names(c, h.Context), c.Catalog.Name(h.Item), h.Prob, h.Support)
		}
		writeModel(*out, m)
	case "bpmf":
		var ratings []bpmf.Rating
		for i := range split.Train.Companies {
			for _, a := range split.Train.Companies[i].Acquisitions {
				ratings = append(ratings, bpmf.Rating{User: i, Item: a.Category, Value: 1})
			}
		}
		cfg := bpmf.Config{
			Rank: *rank, Alpha: 25, Progress: progress,
			Checkpoint: ckptHook[*bpmf.Checkpoint](*ckptPath), CheckpointEvery: *ckptEvery,
		}
		var m *bpmf.Model
		if *resume != "" {
			ck := loadCkpt(*resume, bpmf.LoadCheckpoint)
			m, err = bpmf.Resume(ctx, ck, ratings, cfg)
		} else {
			m, err = bpmf.TrainContext(ctx, cfg, split.Train.N(), c.M(), ratings, g)
		}
		checkTrainErr(err, *ckptPath)
		fmt.Printf("BPMF rank %d: train RMSE %.3f\n", m.Rank, m.RMSE(ratings))
		writeModel(*out, m)
	}
	root.End()
	fmt.Printf("model written to %s\n", *out)
	if *metricsOut != "" {
		if err := obs.Default().WriteJSONFile(*metricsOut); err != nil {
			fatal(err)
		}
		logger.Info("metrics snapshot written", "path", *metricsOut)
	}
	if *traceOut != "" && root.Active() {
		if err := trace.Default().WriteFile(root.TraceID().String(), *traceOut); err != nil {
			fatal(err)
		}
		logger.Info("trace written", "path", *traceOut)
	}
}

func names(c *corpus.Corpus, cats []int) []string {
	out := make([]string, len(cats))
	for i, cat := range cats {
		out[i] = c.Catalog.Name(cat)
	}
	return out
}
