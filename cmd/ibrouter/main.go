// Command ibrouter is the scatter-gather front end for a sharded ibserve
// cluster. Each backend runs `ibserve -shard i/n` over one hash partition of
// the candidate scans; ibrouter fans every query out to all shards with
// per-shard deadlines carved from the request budget, hedges stragglers
// after a quantile delay, merges the partial top-k answers under the exact
// core total order — a fully healthy fan-out is byte-identical to one
// unsharded ibserve — and degrades to "partial": true responses naming the
// missing shards when some of them are down.
//
// Usage:
//
//	ibrouter -shards localhost:8081,localhost:8082,localhost:8083
//
// The shard list must be in partition order: the i-th address serves
// -shard i/n. Shards may also run -ann (approximate candidate routing with
// exact re-rank): every shard then prunes through the same coarse index and
// scans its owned slice of the pool, and the merged answer stays
// byte-identical to one unsharded -ann ibserve — provided all shards share
// identical -ann-cells/-ann-nprobe settings and, ideally, one -ann-index
// file; mixed configurations merge without error but stop matching any
// single-server baseline. Endpoints mirror ibserve's query surface:
//
//	GET  /v1/similar/{id}     merged top-k similar companies
//	GET  /v1/recommend/{id}   two-phase recommendations (global peers)
//	POST /v1/whitespace       merged white-space prospects
//	POST /v1/infer            merged out-of-corpus scoring
//	GET  /healthz             router + per-shard breaker/readiness state
//	GET  /readyz              router readiness (503 once draining)
//
// Per-shard circuit breakers (-breaker-threshold consecutive failures trip;
// half-open probes with exponential cooldown) isolate dead shards, and a
// background /readyz probe (-probe-interval) skips draining ones. Router
// metrics — per-endpoint router_* series plus per-shard fan-out latency,
// hedges fired/won and breaker state — are served on -debug-addr /metrics;
// -slo adds rolling-window SLO tracking on GET /debug/slo. Requests carry a
// W3C traceparent to every shard, so -trace shows the full fan-out span tree
// inspectable at /debug/traces on the same listener. SIGINT/SIGTERM flips
// /readyz, waits -drain-wait, then drains.
package main

import (
	"errors"
	"flag"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/trace"
)

var logger *slog.Logger

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

func main() {
	var (
		shards = flag.String("shards", "", "comma-separated shard addresses in partition order (required)")
		addr   = flag.String("addr", "localhost:8090", "serve address (port 0 picks a free port)")

		reqTO        = flag.Duration("request-timeout", 5*time.Second, "whole-request budget (shards get it minus the merge reserve)")
		mergeReserve = flag.Float64("merge-reserve", 0.1, "fraction of the budget held back from shard deadlines for merging, in [0, 1)")
		hedgeQ       = flag.Float64("hedge-quantile", 0.9, "hedge a shard call once it outlives this quantile of the shard's recent latencies (negative disables)")
		hedgeMin     = flag.Duration("hedge-min", 20*time.Millisecond, "minimum hedge delay")
		brThreshold  = flag.Int("breaker-threshold", 5, "consecutive shard failures that trip its breaker")
		brCooldown   = flag.Duration("breaker-cooldown", 500*time.Millisecond, "first breaker open interval (doubles per failed probe)")
		brMaxCool    = flag.Duration("breaker-max-cooldown", 10*time.Second, "breaker cooldown ceiling")
		probeIvl     = flag.Duration("probe-interval", time.Second, "shard /readyz probe cadence (negative disables)")
		peers        = flag.Int("peers", 25, "default recommendation peer count (must match the shards' -peers)")
		grace        = flag.Duration("grace", 10*time.Second, "connection-drain budget on shutdown")
		drainWait    = flag.Duration("drain-wait", 0, "after SIGTERM, keep serving this long with /readyz at 503 before draining")
		quiet        = flag.Bool("quiet", false, "suppress per-request access-log lines (failures and slow queries still log)")
		maxBody      = flag.Int64("max-body-bytes", 1<<20, "request body cap on POST endpoints; oversized bodies get 413 (negative disables)")
	)
	sloFlags := api.BindSLOFlags(flag.CommandLine, "track rolling-window router SLOs and serve GET /debug/slo on -debug-addr")
	obsFlags := obs.BindFlags(flag.CommandLine)
	traceFlags := trace.BindFlags(flag.CommandLine)
	flag.Parse()
	traceFlags.Apply(trace.Default())
	logger = obs.NewCLILogger(os.Stderr, "ibrouter", obsFlags.Verbose)

	if strings.TrimSpace(*shards) == "" {
		fatal(errors.New("-shards is required (comma-separated addresses in partition order)"))
	}
	var shardList []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shardList = append(shardList, s)
		}
	}

	sloCfg, err := sloFlags.Config()
	if err != nil {
		fatal(err)
	}
	rt, err := router.New(router.Config{
		Shards:             shardList,
		Timeout:            *reqTO,
		MergeReserve:       *mergeReserve,
		HedgeQuantile:      *hedgeQ,
		HedgeMin:           *hedgeMin,
		BreakerThreshold:   *brThreshold,
		BreakerCooldown:    *brCooldown,
		BreakerMaxCooldown: *brMaxCool,
		ProbeInterval:      *probeIvl,
		DefaultPeers:       *peers,
		Logger:             logger,
		Quiet:              *quiet,
		MaxBodyBytes:       *maxBody,
		SLO:                sloCfg,
	})
	if err != nil {
		fatal(err)
	}
	defer rt.Close()
	logger.Info("router built", "shards", len(shardList))

	err = api.Run(api.RunConfig{
		Addr:        *addr,
		Handler:     rt.Handler(),
		DebugAddr:   obsFlags.DebugAddr,
		DebugRoutes: append(trace.Routes(trace.Default()), rt.Routes()...),
		SetReady:    rt.SetReady,
		DrainWait:   *drainWait,
		Grace:       *grace,
		Logger:      logger,
	})
	if err != nil {
		fatal(err)
	}
}
