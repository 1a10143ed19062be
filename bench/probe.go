package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/serve"
)

// The layer probe calls each module's public functions in this process, on
// the corpus and model the servers load, and reports the median time of a
// call. Sample sizes are kept small enough for the whole probe to take a few
// seconds; every one is a fixed prefix of the seed's uniform request stream,
// so counts (allocations, bytes) repeat exactly.
const (
	probeCheap  = 1000 // calls of a function that takes microseconds
	probeScan   = 300  // calls of a full scan (about a millisecond each)
	probeCostly = 100  // calls of a multi-vector scan or a fan-out
)

// medianUS times each of n calls on its own and returns the median in µs.
func medianUS(n int, call func(i int)) float64 {
	d := make([]float64, n)
	for i := range d {
		t := time.Now()
		call(i)
		d[i] = float64(time.Since(t)) / float64(time.Microsecond)
	}
	return median(d)
}

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// layerProbe fills the probe metrics into out. workDir takes the ANN index
// file that ann.load_ms opens.
func layerProbe(art *artefacts, seed int64, workDir string, out map[string]float64) error {
	li, err := loadIndex(art.corpusPath, art.modelPath)
	if err != nil {
		return err
	}
	defer li.close()
	out["datagen.gen_s"] = art.meta.GenS
	out["lda.train_s"] = art.meta.TrainS
	out["corpus.load_s"] = li.timings.CorpusLoadS
	out["lda.load_ms"] = li.timings.LDALoadMs
	out["lda.representations_s"] = li.timings.RepresentationsS
	out["core.newindex_ms"] = li.timings.NewIndexMs

	t := time.Now()
	annIx, err := ann.Build(li.reps, core.Cosine, ann.BuildConfig{Seed: serveSeed})
	if err != nil {
		return fmt.Errorf("ann.Build: %w", err)
	}
	out["ann.build_s"] = time.Since(t).Seconds()
	annPath := filepath.Join(workDir, "probe.ann")
	if err := annIx.SaveFile(annPath); err != nil {
		return err
	}
	t = time.Now()
	mapped, closeANN, err := ann.LoadFile(annPath)
	if err != nil {
		return err
	}
	out["ann.load_ms"] = ms(time.Since(t))
	defer func() { _ = closeANN() }()

	// The query sample: the similar requests at the head of the seed's
	// uniform stream.
	stream := genStream(art.meta.Corpus, seed, 0, 4*probeCheap)
	var ids []int
	var similarPaths []string
	for i := range stream {
		if endpointNames[stream[i].Endpoint] == "similar" && len(ids) < probeCheap {
			var id int
			if _, err := fmt.Sscanf(stream[i].Path, "/v1/similar/%d", &id); err != nil {
				return fmt.Errorf("probe: parsing %q: %w", stream[i].Path, err)
			}
			ids = append(ids, id)
			similarPaths = append(similarPaths, stream[i].Path)
		}
	}
	if len(ids) < probeCheap {
		return fmt.Errorf("probe: only %d similar requests in the sample", len(ids))
	}
	ix := li.index
	country := core.Filter{Country: art.meta.Corpus.Countries[0]}
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	out["core.topk_us"] = medianUS(probeScan, func(i int) {
		_, err := ix.TopK(ids[i], probeK, core.Filter{})
		check(err)
	})
	out["core.topk_filtered_us"] = medianUS(probeScan, func(i int) {
		_, err := ix.TopK(ids[i], probeK, country)
		check(err)
	})
	out["core.topk_allocs"] = testing.AllocsPerRun(10, func() {
		_, err := ix.TopK(ids[0], probeK, core.Filter{})
		check(err)
	})
	out["core.whitespace_us"] = medianUS(probeCostly, func(i int) {
		_, err := ix.Whitespace(ids[3*i:3*i+3], probeK, core.Filter{})
		check(err)
	})
	out["core.recommend_us"] = medianUS(probeScan, func(i int) {
		_, err := ix.RecommendFromSimilar(ids[i], 25, core.Filter{})
		check(err)
	})
	n := li.reps.Rows
	scores := make([]float64, n)
	out["core.scoreblock_ns_per_row"] = 1000 / float64(n) * medianUS(20, func(i int) {
		core.NewScorer(core.Cosine, li.reps.Row(ids[i])).ScoreBlock(li.reps, 0, n, scores)
	})
	// Computed, not measured: an exact scan reads every row of the float64
	// representation matrix once.
	out["core.bytes_scanned_per_query"] = float64(n * li.reps.Cols * 8)

	half := make([][]core.Match, 2)
	for s := range half {
		for r := 0; r < probeK; r++ {
			half[s] = append(half[s], core.Match{CompanyID: 2*r + s, Similarity: 1 - float64(2*r+s)/100})
		}
	}
	out["core.merge_us"] = medianUS(probeCheap, func(int) {
		for r := 0; r < 100; r++ {
			core.MergeTopK(half, probeK, core.MatchBetter)
		}
	}) / 100

	pruner := &ann.Router{Index: mapped, NProbe: 8} // ibserve's default -ann-nprobe
	out["ann.candidates_us"] = medianUS(probeCheap, func(i int) {
		pruner.Candidates([][]float64{li.reps.Row(ids[i])})
	})
	annIndex, err := core.NewIndex(li.corpus, li.reps, core.Cosine)
	if err != nil {
		return err
	}
	annIndex.SetPruner(pruner)
	out["core.topk_ann_us"] = medianUS(probeCheap, func(i int) {
		_, err := annIndex.TopK(ids[i], probeK, core.Filter{})
		check(err)
	})
	sets := li.corpus.Sets()
	out["lda.infer_us"] = medianUS(probeCheap, func(i int) {
		li.model.InferTheta(sets[ids[i]], rng.New(serveSeed))
	})

	// The request shell, through the same handler the binary mounts: a miss
	// runs the scan, the same request again is answered from the cache.
	srv, err := serve.New(serve.Loaded{Index: ix, Model: li.model}, nil, serve.Config{Quiet: true, Logger: quietLogger})
	if err != nil {
		return err
	}
	defer srv.Close()
	get := func(h http.Handler, path string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			check(fmt.Errorf("probe: GET %s: status %d", path, rec.Code))
		}
	}
	handler := srv.Handler()
	out["serve.handler_miss_us"] = medianUS(probeScan, func(i int) { get(handler, similarPaths[i]) })
	hit := similarPaths[probeScan-1]
	out["serve.handler_hit_us"] = medianUS(probeCheap, func(int) { get(handler, hit) })
	out["serve.handler_allocs"] = testing.AllocsPerRun(100, func() { get(handler, hit) })

	// The router's handler over two in-process shards.
	var shardURLs []string
	for part := 0; part < 2; part++ {
		shardIx, err := core.NewIndex(li.corpus, li.reps, core.Cosine)
		if err != nil {
			return err
		}
		if err := shardIx.SetPartition(part, 2); err != nil {
			return err
		}
		shard, err := serve.New(serve.Loaded{Index: shardIx, Model: li.model}, nil,
			serve.Config{Quiet: true, Logger: quietLogger})
		if err != nil {
			return err
		}
		defer shard.Close()
		ts := httptest.NewServer(shard.Handler())
		defer ts.Close()
		shardURLs = append(shardURLs, ts.URL)
	}
	rt, err := router.New(router.Config{Shards: shardURLs, Quiet: true, Logger: quietLogger, ProbeInterval: -1})
	if err != nil {
		return err
	}
	defer rt.Close()
	routerHandler := rt.Handler()
	out["router.handler_us"] = medianUS(probeCostly, func(i int) {
		get(routerHandler, similarPaths[i])
	})
	return failed
}
