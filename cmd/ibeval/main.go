// Command ibeval regenerates the paper's tables and figures on a synthetic
// corpus. Each experiment prints the same rows/series the paper reports,
// annotated with the paper's own numbers for comparison.
//
// Usage:
//
//	ibeval -exp table1                 # Table 1: min perplexity per family
//	ibeval -exp fig1                   # LSTM architecture grid
//	ibeval -exp fig2                   # LDA topics curve (binary vs TF-IDF)
//	ibeval -exp fig3 / fig4            # recommendation accuracy / counts
//	ibeval -exp fig5 / fig6            # BPMF score distribution / accuracy
//	ibeval -exp fig7                   # silhouette curves
//	ibeval -exp fig8 (alias fig9)      # t-SNE product projections
//	ibeval -exp seqtest                # bigram/trigram sequentiality test
//	ibeval -exp cocluster              # Section 3.1 co-clustering note
//	ibeval -exp gru                    # GRU-vs-LSTM ablation (Section 3.4)
//	ibeval -exp windows                # window-size ablation (future work)
//	ibeval -exp chhdepth               # CHH context-depth ablation
//	ibeval -exp all                    # everything
//
// Sizing: -scale quick|standard, overridable with -companies and -seed.
// A corpus can also be supplied with -corpus file.jsonl.
//
// Observability: -debug-addr serves /metrics, /metrics.json, /debug/vars and
// /debug/pprof while experiments run; -progress logs one line per
// experiment; -metrics-out writes a final JSON metrics snapshot so benchmark
// runs leave a machine-readable trace next to their outputs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"time"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/trace"
)

var logger *slog.Logger

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: table1|fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|seqtest|cocluster|all")
		scaleName  = flag.String("scale", "quick", "experiment scale: quick | standard")
		companies  = flag.Int("companies", 0, "override corpus size")
		seed       = flag.Int64("seed", 0, "override seed")
		corpusPath = flag.String("corpus", "", "evaluate on an existing JSONL corpus instead of generating one")
		timing     = flag.Bool("time", true, "print wall-clock time per experiment")
		svgDir     = flag.String("svgdir", "", "also write each figure as an SVG chart into this directory")
		metricsOut = flag.String("metrics-out", "", "write a final JSON metrics snapshot to this path")
	)
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for parallel grids/scans (deterministic at any value)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	traceFlags := trace.BindFlags(flag.CommandLine)
	flag.Parse()
	par.SetWorkers(*workers)
	traceFlags.Apply(trace.Default())

	var stopDebug func()
	logger, stopDebug = obsFlags.Init("ibeval", trace.Routes(trace.Default())...)
	defer stopDebug()

	// Validate the experiment name before generating or loading the corpus,
	// so a typo fails fast instead of after a potentially slow NewContext.
	switch *exp {
	case "all", "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"seqtest", "cocluster", "gru", "windows", "chhdepth", "embed", "topics":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	// With -trace the whole evaluation run becomes one trace: a root span with
	// one child per experiment, visible on -debug-addr /debug/traces.
	tctx, root := trace.Default().Start(context.Background(), "ibeval.main")
	root.Attr("exp", *exp)

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fatal(err)
		}
	}
	writeSVG := func(name, svg string) {
		if *svgDir == "" {
			return
		}
		if err := eval.WriteFigureSVG(*svgDir, name, svg); err != nil {
			fatal(fmt.Errorf("writing %s: %w", name, err))
		}
	}

	var scale eval.Scale
	switch *scaleName {
	case "quick":
		scale = eval.Quick()
	case "standard":
		scale = eval.Standard()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}
	if *companies > 0 {
		scale.Companies = *companies
	}
	if *seed != 0 {
		scale.Seed = *seed
	}

	var ctx *eval.Context
	var err error
	if *corpusPath != "" {
		var c *corpus.Corpus
		if c, err = corpus.LoadFile(*corpusPath); err == nil {
			ctx, err = eval.NewContextFrom(scale, c)
		}
	} else {
		ctx, err = eval.NewContext(scale)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("corpus: %d companies, %d categories, density %.3f (scale %s, seed %d)\n\n",
		ctx.Corpus.N(), ctx.Corpus.M(), ctx.Corpus.Density(), *scaleName, scale.Seed)

	run := func(name string, fn func() (string, error)) {
		if *exp != "all" && *exp != name && !(name == "fig8" && *exp == "fig9") &&
			!(name == "fig3" && *exp == "fig4") {
			return
		}
		if obsFlags.Progress {
			logger.Info("experiment starting", "name", name)
		}
		_, esp := trace.Start(tctx, "ibeval.exp")
		esp.Attr("name", name)
		start := time.Now()
		out, err := fn()
		if err != nil {
			esp.Error(err)
			esp.End()
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		esp.End()
		if obsFlags.Progress {
			logger.Info("experiment done", "name", name, "elapsed", time.Since(start).Round(time.Millisecond).String())
		}
		fmt.Print(out)
		if *timing {
			fmt.Printf("  [%s in %v]\n", name, time.Since(start).Round(time.Millisecond))
		}
		fmt.Println()
	}

	run("seqtest", func() (string, error) {
		return eval.RunSequentialityTest(ctx).Render(), nil
	})
	run("table1", func() (string, error) {
		r, err := eval.RunTable1(ctx)
		if err != nil {
			return "", err
		}
		writeSVG("fig1.svg", r.Figure1.Chart().SVG())
		writeSVG("fig2.svg", r.Figure2.Chart().SVG())
		return r.Render() + r.Figure1.Render() + r.Figure2.Render(), nil
	})
	if *exp != "all" { // table1 already includes fig1+fig2 output
		run("fig1", func() (string, error) {
			r, err := eval.RunFigure1(ctx)
			if err != nil {
				return "", err
			}
			writeSVG("fig1.svg", r.Chart().SVG())
			return r.Render(), nil
		})
		run("fig2", func() (string, error) {
			r, err := eval.RunFigure2(ctx)
			if err != nil {
				return "", err
			}
			writeSVG("fig2.svg", r.Chart().SVG())
			return r.Render(), nil
		})
	}
	run("fig3", func() (string, error) {
		r, err := eval.RunFigure34(ctx)
		if err != nil {
			return "", err
		}
		writeSVG("fig3.svg", r.ChartFigure3().SVG())
		writeSVG("fig4.svg", r.ChartFigure4().SVG())
		return r.RenderFigure3() + r.RenderFigure4(), nil
	})
	run("fig5", func() (string, error) {
		r, err := eval.RunFigure5(ctx)
		if err != nil {
			return "", err
		}
		writeSVG("fig5.svg", r.Chart().SVG())
		return r.Render(), nil
	})
	run("fig6", func() (string, error) {
		r, err := eval.RunFigure6(ctx)
		if err != nil {
			return "", err
		}
		writeSVG("fig6.svg", r.Chart().SVG())
		return r.Render(), nil
	})
	run("fig7", func() (string, error) {
		r, err := eval.RunFigure7(ctx)
		if err != nil {
			return "", err
		}
		writeSVG("fig7.svg", r.Chart().SVG())
		return r.Render(), nil
	})
	run("fig8", func() (string, error) {
		r, err := eval.RunFigure89(ctx)
		if err != nil {
			return "", err
		}
		s3, s4 := r.Charts()
		writeSVG("fig8.svg", s3.SVG())
		writeSVG("fig9.svg", s4.SVG())
		return r.Render(), nil
	})
	run("cocluster", func() (string, error) {
		r, err := eval.RunCoclusterNote(ctx)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("gru", func() (string, error) {
		r, err := eval.RunGRUAblation(ctx)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("windows", func() (string, error) {
		r, err := eval.RunWindowSizeAblation(ctx)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("chhdepth", func() (string, error) {
		r, err := eval.RunCHHDepthAblation(ctx)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("topics", func() (string, error) {
		r, err := eval.RunTopicReport(ctx)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("embed", func() (string, error) {
		r, err := eval.RunEmbeddingComparison(ctx)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})

	root.End()
	if *metricsOut != "" {
		if err := obs.Default().WriteJSONFile(*metricsOut); err != nil {
			fatal(err)
		}
		logger.Info("metrics snapshot written", "path", *metricsOut)
	}
}
