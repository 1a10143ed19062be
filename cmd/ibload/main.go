// Command ibload replays a deterministic, realistic query mix against a
// running ibserve and reports client-observed latency per endpoint — the
// load half of the serving benchmark (ibserve's -slo is the server half).
//
// Usage:
//
//	ibserve -corpus corpus.jsonl -model lda.gob -addr localhost:8080 &
//	ibload  -corpus corpus.jsonl -url http://localhost:8080 \
//	        -mode open -rate 200 -duration 30s -warmup 5s -out ibload_report.json
//
// The corpus is the same file the server loaded: ibload uses it to know the
// company id space, the vocabulary size and the real country/SIC2 values, so
// generated queries hit real entities and filters. Company popularity is
// zipf-skewed (-zipf), endpoints are weighted (-mix-*), and a fraction of
// queries carry business filters (-filter-prob). The stream is seeded: the
// same corpus and -seed replay the same requests.
//
// Two modes:
//
//	-mode open    fixed arrival rate (-rate/sec). Latency is measured from
//	              each request's scheduled departure, so server backlog is
//	              charged to the server (coordinated-omission corrected).
//	              -c caps in-flight requests.
//	-mode closed  -c workers issue requests back to back, measuring pure
//	              service time.
//
// Every request carries a fresh W3C traceparent (disable with -trace=false);
// against a server running -trace, the report's slowest_trace_id fields
// resolve at the server's /debug/traces/{id}. Results are written atomically
// to -out (default ibload_report.json), a load.Report as JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/load"
	"repro/internal/obs"
)

func main() {
	var (
		url        = flag.String("url", "http://localhost:8080", "base URL of the running ibserve")
		corpusPath = flag.String("corpus", "corpus.jsonl", "corpus JSONL the server loaded (defines ids, vocab, filters)")
		mode       = flag.String("mode", "open", "driving mode: open (fixed arrival rate) or closed (fixed concurrency)")
		rate       = flag.Float64("rate", 50, "open-loop arrival rate, requests/second")
		conc       = flag.Int("c", 8, "closed-loop workers; open-loop in-flight cap")
		duration   = flag.Duration("duration", 5*time.Second, "measured span")
		warmup     = flag.Duration("warmup", 0, "requests sent before measurement starts (excluded from the report)")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-request client deadline")
		seed       = flag.Int64("seed", 1, "request-stream seed (same corpus+seed replays the same stream)")
		zipf       = flag.Float64("zipf", 1.1, "company-popularity skew (0 = uniform)")
		filterProb = flag.Float64("filter-prob", 0.25, "probability a query carries a country/sic2 filter (negative disables)")
		mixSimilar = flag.Float64("mix-similar", load.DefaultMix.Similar, "similar endpoint weight")
		mixRec     = flag.Float64("mix-recommend", load.DefaultMix.Recommend, "recommend endpoint weight")
		mixWS      = flag.Float64("mix-whitespace", load.DefaultMix.Whitespace, "whitespace endpoint weight")
		mixInfer   = flag.Float64("mix-infer", load.DefaultMix.Infer, "infer endpoint weight")
		sendTrace  = flag.Bool("trace", true, "send a fresh W3C traceparent with every request")
		label      = flag.String("label", "", "label recorded in the report (tells runs apart in combined benchmark files)")
		out        = flag.String("out", "ibload_report.json", "report path (written atomically)")
		verbose    = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()
	logger := obs.NewCLILogger(os.Stderr, "ibload", *verbose)
	fatal := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}

	c, err := corpus.LoadFile(*corpusPath)
	if err != nil {
		fatal(fmt.Errorf("loading corpus: %w", err))
	}
	if *mode != "open" && *mode != "closed" {
		fatal(fmt.Errorf("unknown -mode %q (want open or closed)", *mode))
	}

	gen := load.NewGenerator(c, load.GenConfig{
		Seed:       *seed,
		ZipfSkew:   *zipf,
		FilterProb: *filterProb,
		Mix: load.Mix{
			Similar:    *mixSimilar,
			Recommend:  *mixRec,
			Whitespace: *mixWS,
			Infer:      *mixInfer,
		},
	})
	cfg := load.Config{
		BaseURL:     *url,
		OpenLoop:    *mode == "open",
		Rate:        *rate,
		Concurrency: *conc,
		Duration:    *duration,
		Warmup:      *warmup,
		Timeout:     *timeout,
		Trace:       *sendTrace,
		Label:       *label,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("replaying", "url", *url, "mode", *mode, "rate", *rate, "c", *conc,
		"duration", duration.String(), "warmup", warmup.String(), "companies", c.N())
	report, err := load.Run(ctx, gen, cfg)
	if err != nil {
		fatal(err)
	}

	names := make([]string, 0, len(report.Endpoints))
	for name := range report.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-12s %8s %6s %8s %9s %9s %9s %9s\n",
		"endpoint", "req", "err", "qps", "p50ms", "p90ms", "p99ms", "p999ms")
	for _, name := range names {
		e := report.Endpoints[name]
		fmt.Printf("%-12s %8d %6d %8.1f %9.3f %9.3f %9.3f %9.3f\n",
			name, e.Requests, e.Errors, e.QPS, e.P50MS, e.P90MS, e.P99MS, e.P999MS)
	}
	tot := report.Total
	fmt.Printf("%-12s %8d %6d %8.1f %9.3f %9.3f %9.3f %9.3f\n",
		"total", tot.Requests, tot.Errors, tot.QPS, tot.P50MS, tot.P90MS, tot.P99MS, tot.P999MS)
	if tot.Errors > 0 || tot.Partial > 0 {
		fmt.Printf("errors: %d transport, %d http; partial responses: %d\n",
			tot.ErrorsTransport, tot.ErrorsHTTP, tot.Partial)
	}

	// A shadow-sampling target (ibserve -shadow-sample, or an ibrouter fleet)
	// exposes its live exact-vs-ANN recall at /debug/recall; fold it into the
	// report next to the client-observed latencies. A 404 (not sampling) is
	// silent; only a reachable-but-broken scrape warns.
	if rs, err := load.ScrapeRecall(*url, *timeout); err != nil {
		logger.Debug("scraping /debug/recall", "err", err.Error())
	} else if rs != nil {
		report.Recall = rs
		fmt.Printf("observed ANN recall: %.4f over %d window samples (%d sampled, %d dropped, %d exact errors)\n",
			rs.ObservedRecall, rs.WindowSamples, rs.Samples, rs.Dropped, rs.ExactErrors)
	}

	if err := report.WriteFile(*out); err != nil {
		fatal(fmt.Errorf("writing report: %w", err))
	}
	fmt.Printf("report written to %s\n", *out)
	if tot.Requests > 0 && tot.ErrorRate > 0.5 {
		logger.Error(fmt.Sprintf("more than half the requests failed (%.0f%%) — is the server up and serving this corpus?", tot.ErrorRate*100))
		os.Exit(1)
	}
}
