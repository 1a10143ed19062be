// Command metricnames prints every metric name the serving stack can
// register, one per line, by constructing real instances against the shared
// obs registry: a server with shadow sampling, the recall SLO and the reload
// canary armed, a scatter-gather router with its own SLO tracker, and the
// runtime sampler. Trainer- and infrastructure-package metrics register as
// package variables, so importing the packages is enough for those.
//
// scripts/check_metrics_docs.sh runs this and asserts each printed name is
// documented in README.md or DESIGN.md — new metrics cannot land undocumented.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/shadow"

	_ "repro/internal/ann"
	_ "repro/internal/bpmf"
	_ "repro/internal/chaos"
	_ "repro/internal/eval"
	_ "repro/internal/lda"
	_ "repro/internal/par"
	_ "repro/internal/rnn"
	_ "repro/internal/sgns"
	_ "repro/internal/snapshot"
	_ "repro/internal/trace"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "metricnames:", err)
	os.Exit(1)
}

func main() {
	prom := flag.Bool("prom", false, "dump the full Prometheus exposition (names + help) instead of bare names")
	flag.Parse()

	cat := corpus.DefaultCatalog()
	companies := []corpus.Company{
		{ID: 0, Name: "a", Country: "US", SIC2: 70, Employees: 10, RevenueM: 1,
			Acquisitions: []corpus.Acquisition{{Category: 0, First: corpus.Month(1)}}},
		{ID: 1, Name: "b", Country: "DE", SIC2: 71, Employees: 20, RevenueM: 2,
			Acquisitions: []corpus.Acquisition{{Category: 1, First: corpus.Month(2)}}},
	}
	c := corpus.New(cat, companies)
	reps := mat.New(len(companies), 3)
	for i := range reps.Data {
		reps.Data[i] = float64(i + 1)
	}
	ix, err := core.NewIndex(c, reps, core.Cosine)
	if err != nil {
		fatal(err)
	}
	srv, err := serve.New(serve.Loaded{Index: ix}, nil, serve.Config{
		Quiet:       true,
		Shadow:      &shadow.Config{SampleN: 1},
		ReloadGuard: 0.9,
		SLO:         &api.SLOConfig{Recall: 0.9},
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	rt, err := router.New(router.Config{
		Shards:        []string{"127.0.0.1:9"},
		ProbeInterval: -1,
		SLO:           &api.SLOConfig{},
	})
	if err != nil {
		fatal(err)
	}
	defer rt.Close()
	stop := obs.StartRuntimeSampler(obs.Default(), time.Hour)
	defer stop()

	if *prom {
		if err := obs.Default().WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	for _, name := range obs.Default().Names() {
		fmt.Println(name)
	}
}
