// Command ibtrain trains one of the paper's model families on a corpus and
// persists it as a checksummed snapshot file: the LDA model ibserve serves,
// or an LSTM or GRU sequence model.
//
// Usage:
//
//	ibtrain -model lda  -topics 2,3,4 -corpus corpus.jsonl -out lda.gob
//	ibtrain -model lda  -topics 3 -corpus corpus.jsonl -out lda3.gob
//	ibtrain -model lstm -layers 1 -hidden 200 -epochs 14 -corpus corpus.jsonl -out lstm.gob
//	ibtrain -model gru  -layers 1 -hidden 200 -epochs 14 -corpus corpus.jsonl -out gru.gob
//
// Every model prints its test perplexity on a 70/10/20 split so runs are
// comparable with the paper's Table 1.
//
// Model selection: -topics with a comma list trains LDA at every K on the
// training part of the split, prints each K's validation perplexity and
// writes the K with the lowest (hiddenlayer.SelectLDAContext; the paper
// selects 2-4 topics this way). Selection takes no -tfidf, -resume,
// -checkpoint or -checkpoint-every, and SIGINT/SIGTERM abandon it without
// writing anything.
//
// Crash safety: the model (and any checkpoint) is written atomically — to a
// fsynced temp file renamed over the destination — only after training
// succeeds, so an aborted run never clobbers or truncates an existing model.
// When one model is trained, SIGINT/SIGTERM is trapped: the current epoch
// or sweep finishes, a final checkpoint is written to -checkpoint (default:
// the -out path plus ".ckpt"), and the process exits cleanly.
// -checkpoint-every N additionally writes a checkpoint every N
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
	"strconv"
	"strings"
	"syscall"

	hiddenlayer "repro"
	"repro/internal/corpus"
	"repro/internal/lda"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/rnn"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

var logger *slog.Logger

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

// saver is satisfied by every model and checkpoint type.
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
}

// usageErr reports a bad command line and exits 2 before any file is read.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ibtrain: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "usage: ibtrain -model lda|lstm|gru [flags]; run with -help for the full flag list")
	os.Exit(2)
}

// parseTopics reads -topics: one topic count, or a comma list to select from.
func parseTopics(s string) ([]int, error) {
	var ks []int
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("-topics %q: want a positive topic count or a comma list of them", s)
		}
		ks = append(ks, k)
	}
	return ks, nil
}

func main() {
	var (
		model      = flag.String("model", "lda", "model family: lda (the model ibserve serves) | lstm | gru")
		corpusPath = flag.String("corpus", "corpus.jsonl", "input corpus (JSONL)")
		out        = flag.String("out", "model.gob", "output model path")
		seed       = flag.Int64("seed", 1, "training seed")

		topics = flag.String("topics", "3", "lda: number of latent topics, or a comma list (2,3,4) to select the one with the lowest validation perplexity")
		tfidf  = flag.Bool("tfidf", false, "lda: use TF-IDF token weights instead of binary input")

		layers  = flag.Int("layers", 1, "lstm/gru: hidden layers (1-3)")
		hidden  = flag.Int("hidden", 200, "lstm/gru: nodes per layer / embedding size")
		epochs  = flag.Int("epochs", 14, "lstm/gru: training epochs")
		dropout = flag.Float64("dropout", 0.2, "lstm/gru: dropout probability")

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
	ks, err := parseTopics(*topics)
	if err != nil {
		usageErr("%v", err)
	}
	selecting := len(ks) > 1
	if selecting {
		if *model != "lda" {
			usageErr("a -topics list selects an LDA model; -model is %q", *model)
		}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "tfidf", "resume", "checkpoint", "checkpoint-every":
				usageErr("-%s does not apply to model selection (-topics %s)", f.Name, *topics)
			}
		})
	}
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
	case "lda", "lstm", "gru":
	default:
		usageErr("unknown model %q (want lda|lstm|gru)", *model)
	}

	if *ckptPath == "" {
		*ckptPath = *out + ".ckpt"
	}

	// SIGINT/SIGTERM cancel the training context; the trainers notice at the
	// next epoch boundary, write a final checkpoint and return
	// context.Canceled, which checkTrainErr turns into a clean exit. Model
	// selection has no checkpoint: it stops with nothing written.
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

	switch {
	case selecting:
		// SelectLDAContext splits the corpus as above, from its own
		// rng.New(seed), so the test part printed below is held out from
		// selection too.
		sel, err := hiddenlayer.SelectLDAContext(ctx, c, ks, *seed, progress)
		if errors.Is(err, context.Canceled) {
			logger.Info("model selection interrupted")
			fmt.Println("model selection interrupted: nothing written")
			os.Exit(1)
		}
		if err != nil {
			fatal(err)
		}
		for _, tp := range sel.Curve {
			fmt.Printf("LDA%d validation perplexity: %.2f\n", tp.Topics, tp.Perplexity)
		}
		m := sel.Model
		fmt.Printf("selected LDA%d: test perplexity %.2f (parameters: %d)\n",
			m.K, m.Perplexity(split.Test.Sets(), g), m.ParameterCount())
		writeModel(*out, m)
	case *model == "lda":
		var weights [][]float64
		if *tfidf {
			weights = split.Train.TFIDFWeights()
		}
		cfg := lda.Config{
			Topics: ks[0], V: c.M(), Progress: progress,
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
		writeModel(*out, m)
	default:
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
	}
	root.End()
	fmt.Printf("model written to %s\n", *out)
	if *metricsOut != "" {
		if err := snapshot.Atomic(*metricsOut, obs.Default().WriteJSON); err != nil {
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
