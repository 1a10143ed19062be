// Command ibrec is the paper's Section 6 sales tool: given a corpus it
// trains (or loads) an LDA model, builds the company-similarity index, and
// answers top-k similar-company queries, white-space prospecting and
// gap-based product recommendations, with business filters.
//
// Usage:
//
//	ibrec -corpus corpus.jsonl -company 42 -k 10
//	ibrec -corpus corpus.jsonl -company 42 -recommend -peers 25
//	ibrec -corpus corpus.jsonl -clients 1,2,3 -whitespace -k 10 -country US
//	ibrec -corpus corpus.jsonl -company 42 -sic2 80 -min-employees 100
//
// Observability: -debug-addr serves /metrics (including the
// topk_latency_seconds histogram and filter-selectivity counters populated
// by the query paths), /metrics.json, /debug/vars and /debug/pprof;
// -progress logs per-sweep LDA training lines when the model is trained on
// the fly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	hiddenlayer "repro"
	"repro/internal/lda"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/trace"
)

var logger *slog.Logger

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

func fatalMsg(msg string) {
	logger.Error(msg)
	os.Exit(1)
}

// loadLDA reads a checksummed LDA model snapshot written by ibtrain.
func loadLDA(path string) (*hiddenlayer.LDAModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lda.Load(f)
}

func main() {
	var (
		corpusPath = flag.String("corpus", "corpus.jsonl", "corpus JSONL path")
		modelPath  = flag.String("model", "", "optional pre-trained LDA model (gob); trained on the fly when empty")
		seed       = flag.Int64("seed", 1, "seed for training/inference")
		companyID  = flag.Int("company", -1, "query company id")
		clients    = flag.String("clients", "", "comma-separated client ids for -whitespace")
		k          = flag.Int("k", 10, "number of results")
		peers      = flag.Int("peers", 25, "similar companies consulted for -recommend")
		doRec      = flag.Bool("recommend", false, "produce product recommendations for -company")
		doWS       = flag.Bool("whitespace", false, "rank white-space prospects for -clients")

		fSIC2   = flag.Int("sic2", 0, "filter: SIC2 industry code")
		fCty    = flag.String("country", "", "filter: country")
		fMinEmp = flag.Int("min-employees", 0, "filter: minimum employees")
		fMaxEmp = flag.Int("max-employees", 0, "filter: maximum employees")
		fMinRev = flag.Float64("min-revenue", 0, "filter: minimum revenue (M USD)")
		fMaxRev = flag.Float64("max-revenue", 0, "filter: maximum revenue (M USD)")
	)
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for parallel grids/scans (deterministic at any value)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	traceFlags := trace.BindFlags(flag.CommandLine)
	flag.Parse()
	par.SetWorkers(*workers)
	traceFlags.Apply(trace.Default())

	var stopDebug func()
	logger, stopDebug = obsFlags.Init("ibrec", trace.Routes(trace.Default())...)
	defer stopDebug()
	var progress obs.Progress
	if obsFlags.Progress {
		progress = obs.SlogProgress(logger)
	}

	c, err := hiddenlayer.LoadCorpus(*corpusPath)
	if err != nil {
		fatal(err)
	}
	// Answers name companies by row: refuse a corpus whose ids are not its
	// rows now, not after model selection.
	if err := c.CheckIDs(); err != nil {
		fatal(err)
	}
	var model *hiddenlayer.LDAModel
	if *modelPath != "" {
		model, err = loadLDA(*modelPath)
		if err != nil {
			fatal(err)
		}
	} else {
		// Model selection can take a while on big corpora; SIGINT/SIGTERM
		// abandon it at the next Gibbs-sweep boundary instead of requiring
		// a hard kill.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		fmt.Println("selecting LDA model by validation perplexity (topics 2, 3, 4)...")
		sel, err := hiddenlayer.SelectLDAContext(ctx, c, []int{2, 3, 4}, *seed, progress)
		stop()
		if err != nil {
			fatal(err)
		}
		for _, tp := range sel.Curve {
			fmt.Printf("  %d topics: perplexity %.2f\n", tp.Topics, tp.Perplexity)
		}
		model = sel.Model
		fmt.Printf("  -> selected LDA%d\n", model.K)
	}
	sys, err := hiddenlayer.NewSystem(c, model, *seed+1)
	if err != nil {
		fatal(err)
	}
	filter := hiddenlayer.Filter{
		SIC2: *fSIC2, Country: *fCty,
		MinEmployees: *fMinEmp, MaxEmployees: *fMaxEmp,
		MinRevenueM: *fMinRev, MaxRevenueM: *fMaxRev,
	}

	describe := func(id int) string {
		co := &c.Companies[id]
		return fmt.Sprintf("#%d %s (%s, SIC2 %d, %d employees, $%.1fM)",
			co.ID, co.Name, co.Country, co.SIC2, co.Employees, co.RevenueM)
	}

	switch {
	case *doWS:
		ids, err := parseIDs(*clients)
		if err != nil {
			fatal(err)
		}
		prospects, err := sys.Whitespace(ids, *k, filter)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ntop %d white-space prospects for %d clients:\n", len(prospects), len(ids))
		for _, p := range prospects {
			fmt.Printf("  %-60s similarity %.3f (nearest client #%d)\n",
				describe(p.CompanyID), p.Similarity, p.NearestClient)
		}
	case *doRec:
		if *companyID < 0 {
			fatalMsg("-recommend requires -company")
		}
		recs, err := sys.RecommendProducts(*companyID, *peers, filter)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nproduct recommendations for %s (from %d peers):\n", describe(*companyID), *peers)
		shown := 0
		for _, r := range recs {
			if shown >= *k {
				break
			}
			fmt.Printf("  %-28s strength %.3f (%d peer owners)\n", r.Name, r.Strength, r.Owners)
			shown++
		}
	default:
		if *companyID < 0 {
			fatalMsg("need -company, -recommend or -whitespace")
		}
		matches, err := sys.SimilarCompanies(*companyID, *k, filter)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ntop %d companies similar to %s:\n", len(matches), describe(*companyID))
		for _, m := range matches {
			fmt.Printf("  %-60s similarity %.3f\n", describe(m.CompanyID), m.Similarity)
		}
	}
}

func parseIDs(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty -clients list")
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad client id %q: %w", part, err)
		}
		out = append(out, id)
	}
	return out, nil
}
