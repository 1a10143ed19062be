// Command ibserve is the HTTP query service over the Section 6 index: it
// loads a snapshot-format LDA model and a JSONL corpus, infers every
// company's representation, builds the similarity index and serves JSON
// queries until terminated.
//
// Usage:
//
//	ibserve -corpus corpus.jsonl -model lda.gob -addr localhost:8080
//
// Endpoints:
//
//	GET  /v1/similar/{id}?k=10&country=US&sic2=73     similar companies
//	GET  /v1/recommend/{id}?peers=25                  product recommendations
//	POST /v1/whitespace  {"clients":[1,2],"k":10,"filter":{"country":"US"}}
//	POST /v1/infer       {"owned":[0,4,7],"k":10}     out-of-corpus scoring
//	POST /admin/reload                                hot-swap model + corpus
//	GET  /healthz                                     liveness + index shape
//	GET  /readyz                                      readiness (503 once draining)
//
// Approximate search: -ann routes the candidate scans through a coarse
// k-means index (internal/ann) — only the -ann-nprobe cells nearest each
// query vector are scanned, re-ranked exactly — for sub-linear top-k on
// large corpora. -ann-cells sizes the index (default sqrt of the corpus)
// and -ann-index persists it as an IBSNAP v2 snapshot that boots and
// reloads mmap the index instead of re-clustering. Without -ann every scan
// stays an exact full scan, byte-identical to previous releases.
//
// Quality check: every /admin/reload answers a fixed probe set (256 evenly
// spaced company ids, unfiltered top-k) on the serving and the incoming
// generation and reports the mean and minimum result-set Jaccard of the two
// as the response's "canary"; -reload-guard refuses with 409 a swap whose
// mean Jaccard falls below the threshold. An -ann generation also answers
// the probes exactly, at boot and at reload, and its probe recall is the
// ann_observed_recall gauge.
//
// Sharded serving: -shard i/n restricts the candidate scans to partition i
// of n (a stable hash of the company id; the representations stay complete,
// so any shard can still score recommendation peers). Run one ibserve per
// partition and an ibrouter over all of them — the router merges per-shard
// top-k answers byte-identically to an unsharded server. POST bodies above
// -max-body-bytes fail fast with 413. On SIGTERM, /readyz flips to 503 and
// the process keeps serving for -drain-wait before draining, so routers
// stop routing to it first.
//
// All query endpoints accept the business-filter fields (sic2, country,
// min_employees, max_employees, min_revenue_m, max_revenue_m) as query
// parameters (GET) or a "filter" object (POST), and run under the
// -request-timeout deadline with at most -max-concurrent queries executing
// at once. /admin/reload re-reads -model and -corpus from disk and swaps
// the index atomically: in-flight requests finish against the old index.
//
// Observability: -debug-addr serves /metrics (including the per-endpoint
// serve_*_requests_total / serve_*_errors_total / serve_*_latency_seconds
// series), /metrics.json, /debug/vars and /debug/pprof on a side listener.
// -trace additionally records request-scoped span trees with tail sampling
// (error and slow traces always kept, the rest at -trace-sample) and serves
// them as /debug/traces and /debug/traces/{id} on the same listener; requests
// presenting a W3C traceparent header join the caller's trace and get the
// assigned IDs echoed back. -slo tracks rolling-window SLOs (per-endpoint
// latency quantiles, error budget and burn rate against the -slo-availability
// and -slo-latency objectives) served as GET /debug/slo and summarized in
// /healthz; -runtime-metrics samples Go runtime health (go_* series) into
// /metrics. Every request emits one structured access-log line (-quiet keeps
// only failures and slow queries). SIGINT/SIGTERM drains connections
// gracefully before exiting. Use cmd/ibload to replay a realistic query mix
// against a running ibserve and measure client-side latency.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/ann"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lda"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/trace"
)

var logger *slog.Logger

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

// parseShard parses the -shard i/n syntax into a (partition, count) pair,
// refusing a count below one and an index outside [0, n); the empty string
// means unsharded.
func parseShard(s string) (part, parts int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	a, b, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard %q is not i/n (e.g. 0/3)", s)
	}
	if part, err = strconv.Atoi(a); err != nil {
		return 0, 0, fmt.Errorf("-shard %q: bad partition index", s)
	}
	if parts, err = strconv.Atoi(b); err != nil {
		return 0, 0, fmt.Errorf("-shard %q: bad partition count", s)
	}
	if parts < 1 || part < 0 || part >= parts {
		return 0, 0, fmt.Errorf("-shard %q: want partition i of n with 0 <= i < n", s)
	}
	return part, parts, nil
}

// annOptions carries the -ann* flags into buildState.
type annOptions struct {
	on     bool
	cells  int    // 0 = sqrt(corpus) default
	nprobe int    // cells probed per query vector
	path   string // index snapshot; empty = rebuild in memory each load
	seed   int64
}

// openOrBuildANN produces the coarse routing index for reps: when opts.path
// names a snapshot whose fingerprint (and cell count, if -ann-cells pins
// one) matches, it is mmapped zero-copy; otherwise the index is re-clustered
// from reps and — when a path is configured — saved and re-opened through
// the mapping, so the next boot or reload skips training entirely.
func openOrBuildANN(reps *mat.Matrix, opts annOptions) (*ann.Index, func() error, error) {
	if opts.path != "" {
		ix, closeIx, err := ann.LoadFile(opts.path)
		switch {
		case err == nil && ix.RepsCRC == ann.Fingerprint(reps) &&
			(opts.cells == 0 || ix.Cells() == opts.cells):
			logger.Info("ann index mapped", "path", opts.path, "cells", ix.Cells())
			return ix, closeIx, nil
		case err == nil:
			_ = closeIx()
			logger.Warn("ann index stale, re-clustering", "path", opts.path)
		case !os.IsNotExist(errors.Unwrap(err)) && !os.IsNotExist(err):
			logger.Warn("ann index unreadable, re-clustering", "path", opts.path, "err", err.Error())
		}
	}
	built, err := ann.Build(reps, core.Cosine, ann.BuildConfig{Cells: opts.cells, Seed: opts.seed})
	if err != nil {
		return nil, nil, fmt.Errorf("building ann index: %w", err)
	}
	if opts.path == "" {
		return built, func() error { return nil }, nil
	}
	if err := built.SaveFile(opts.path); err != nil {
		return nil, nil, fmt.Errorf("saving ann index %s: %w", opts.path, err)
	}
	ix, closeIx, err := ann.LoadFile(opts.path)
	if err != nil {
		return nil, nil, err
	}
	logger.Info("ann index built and saved", "path", opts.path, "cells", ix.Cells())
	return ix, closeIx, nil
}

// buildState loads the corpus and model from disk and assembles the index
// (partitioned when running as a shard). It is both the startup path and the
// /admin/reload loader, so a reload with unchanged files reproduces the
// startup state bit for bit (the representation RNG is re-seeded identically
// each load, and the partition is re-applied).
//
// The model goes through lda.LoadFile: an IBSNAP v2 snapshot is mmapped and
// phi aliases the mapping (no payload decode, no heap copy), a v1 gob
// snapshot takes the legacy buffered decode. With -ann the coarse routing
// index rides the same discipline (openOrBuildANN). The returned
// generation's Close releases both mappings; serve runs it only after the
// generation has been swapped out and the last in-flight request against it
// finished.
//
// The work is three stages — at 100k companies on two cores about 0.14 s,
// 0.30 s and 0.09 s: decode the JSONL straight into the columns the index
// serves from (corpus.LoadColumns, chunk-parallel: names, install bases and
// filter attributes, no []corpus.Company; a line whose id is not its row
// fails the load there), fold every company in (Model.Representations over
// a copy of the install bases that is dropped after, shard-parallel, each
// company from a stream of its own seeded by -seed and its row), build the
// row norms, candidate lists and cone trees (core.NewShardIndex, over the
// shard's own rows only) and, with -ann, open or build the routing index.
// The first two run on all -workers cores, so a reload competes with queries
// for CPU for that long — a third of the time it used to hold one core.
// Loaded.BuildLog carries the three durations onto the "index built" and
// "model reloaded" log lines.
func buildState(corpusPath, modelPath string, seed int64, part, parts int, annOpts annOptions) (serve.Loaded, error) {
	start := time.Now()
	cols, err := corpus.LoadColumns(corpusPath)
	if err != nil {
		return serve.Loaded{}, fmt.Errorf("loading corpus: %w", err)
	}
	corpusLoaded := time.Now()
	m, closeModel, err := lda.LoadFile(modelPath)
	if err != nil {
		return serve.Loaded{}, fmt.Errorf("loading model %s: %w", modelPath, err)
	}
	fail := func(err error) (serve.Loaded, error) {
		_ = closeModel()
		return serve.Loaded{}, err
	}
	if cols.M() != m.V {
		return fail(fmt.Errorf("corpus has %d categories, model %d", cols.M(), m.V))
	}
	reps := m.Representations(cols.Sets(), rng.New(seed))
	represented := time.Now()
	ix, err := core.NewShardIndex(cols, reps, core.Cosine, part, parts)
	if err != nil {
		return fail(err)
	}
	closeAll := closeModel
	if annOpts.on {
		annIx, closeANN, err := openOrBuildANN(reps, annOpts)
		if err != nil {
			return fail(err)
		}
		ix.SetPruner(&ann.Router{Index: annIx, NProbe: annOpts.nprobe})
		closeAll = func() error {
			err1 := closeANN()
			if err2 := closeModel(); err2 != nil {
				return err2
			}
			return err1
		}
	}
	ms := func(from, to time.Time) float64 { return float64(to.Sub(from).Microseconds()) / 1e3 }
	return serve.Loaded{Index: ix, Model: m, Close: closeAll, BuildLog: []any{
		"corpus_load_ms", ms(start, corpusLoaded),
		"representations_ms", ms(corpusLoaded, represented),
		"index_ms", ms(represented, time.Now()),
	}}, nil
}

// heapLiveMB reads the heap the last collection found live, in MiB, from
// runtime/metrics, which does not stop the world.
func heapLiveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return math.Round(float64(s[0].Value.Uint64())/(1<<20)*10) / 10
}

func main() {
	var (
		corpusPath = flag.String("corpus", "corpus.jsonl", "corpus JSONL path")
		modelPath  = flag.String("model", "lda.gob", "trained LDA model snapshot (from ibtrain)")
		addr       = flag.String("addr", "localhost:8080", "serve address (port 0 picks a free port)")
		seed       = flag.Int64("seed", 1, "representation-inference seed (reused on reload)")

		defaultK  = flag.Int("k", 10, "default result count when a request omits k")
		peers     = flag.Int("peers", 25, "default peer count for /v1/recommend")
		maxConc   = flag.Int("max-concurrent", 0, "max queries executing at once (0 = worker count)")
		reqTO     = flag.Duration("request-timeout", 5*time.Second, "per-request deadline")
		maxBody   = flag.Int64("max-body-bytes", 1<<20, "POST request body cap in bytes; oversized bodies fail 413 (negative disables)")
		shardSpec = flag.String("shard", "", `serve one partition of the candidate scans, as "i/n" (e.g. 0/3); pair with an ibrouter over all n shards`)

		annOn     = flag.Bool("ann", false, "route candidate scans through a coarse k-means ANN index with exact re-rank (sub-linear top-k; off = exact full scan)")
		annCells  = flag.Int("ann-cells", 0, "ANN coarse cell count (0 = sqrt of the corpus size)")
		annNProbe = flag.Int("ann-nprobe", 8, "ANN cells probed per query vector (clamped to the cell count; raise for recall, lower for speed)")
		annPath   = flag.String("ann-index", "", "ANN index snapshot path: mmapped when present and matching the representations, re-clustered and saved otherwise (empty = rebuild in memory each load)")
		grace     = flag.Duration("grace", 10*time.Second, "connection-drain budget on shutdown")
		drainWait = flag.Duration("drain-wait", 0, "after SIGTERM, keep serving this long with /readyz at 503 before draining, so routers stop sending first")
		quiet     = flag.Bool("quiet", false, "suppress per-request access-log lines (failures and slow queries still log)")

		reloadGuard = flag.Float64("reload-guard", 0, "refuse /admin/reload with 409 when the mean result-set Jaccard of the serving and incoming generations over the probe set falls below this, in [0, 1] (0 = report-only)")

		runtimeMetrics  = flag.Bool("runtime-metrics", false, "sample Go runtime health (go_* gauges, GC pauses) into /metrics")
		runtimeInterval = flag.Duration("runtime-interval", 10*time.Second, "runtime sampler interval (each sample briefly stops the world)")
	)
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for boot and reload builds (corpus decode, fold-in, cone trees) and the -max-concurrent default; every query scans on its own goroutine (deterministic at any value)")
	sloFlags := api.BindSLOFlags(flag.CommandLine, "track rolling-window SLOs per endpoint and serve GET /debug/slo on -debug-addr")
	obsFlags := obs.BindFlags(flag.CommandLine)
	traceFlags := trace.BindFlags(flag.CommandLine)
	flag.Parse()
	par.SetWorkers(*workers)
	traceFlags.Apply(trace.Default())

	logger = obs.NewCLILogger(os.Stderr, "ibserve", obsFlags.Verbose)
	if *runtimeMetrics {
		stopSampler := obs.StartRuntimeSampler(obs.Default(), *runtimeInterval)
		defer stopSampler()
	}

	part, parts, err := parseShard(*shardSpec)
	if err != nil {
		fatal(err)
	}
	annOpts := annOptions{on: *annOn, cells: *annCells, nprobe: *annNProbe, path: *annPath, seed: *seed}
	loaded, err := buildState(*corpusPath, *modelPath, *seed, part, parts, annOpts)
	if err != nil {
		fatal(err)
	}
	ix, model := loaded.Index, loaded.Model
	built := []any{"companies", ix.N(), "topics", model.K}
	if parts > 1 {
		built = append(built, "shard", *shardSpec, "owned", ix.OwnedCompanies())
	}
	logger.Info("index built", append(built, loaded.BuildLog...)...)
	if p := ix.Pruner(); p != nil {
		info := p.Info()
		logger.Info("ann routing on", "cells", info.Cells, "nprobe", info.NProbe, "mapped", info.Mapped)
	}

	cfg := serve.Config{
		DefaultK:      *defaultK,
		DefaultPeers:  *peers,
		MaxConcurrent: *maxConc,
		Timeout:       *reqTO,
		MaxBodyBytes:  *maxBody,
		Seed:          *seed,
		Logger:        logger,
		Quiet:         *quiet,
		ReloadGuard:   *reloadGuard,
	}
	if cfg.SLO, err = sloFlags.Config(); err != nil {
		fatal(err)
	}
	srv, err := serve.New(loaded, func(context.Context) (serve.Loaded, error) {
		return buildState(*corpusPath, *modelPath, *seed, part, parts, annOpts)
	}, cfg)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	// Collect the boot's garbage (decode buffers, fold-in and tree-build
	// scratch) before taking traffic. The first heap goal under load is then
	// twice the live serving state on every boot, not twice whatever boot
	// scratch the last boot-time cycle happened to find still in use, which
	// moved the goal by up to 18 MB, and the resident peak under load by up
	// to 10 MB, between boots of the same files.
	runtime.GC()
	logger.Info("boot heap", "heap_live_mb", heapLiveMB())

	// The debug listener starts after the server is built so /debug/slo can
	// mount beside /debug/traces.
	err = api.Run(api.RunConfig{
		Addr:        *addr,
		Handler:     srv.Handler(),
		DebugAddr:   obsFlags.DebugAddr,
		DebugRoutes: slices.Concat(trace.Routes(trace.Default()), srv.SLORoutes()),
		SetReady:    srv.SetReady,
		DrainWait:   *drainWait,
		Grace:       *grace,
		Logger:      logger,
	})
	if err != nil {
		fatal(err)
	}
}
