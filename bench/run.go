package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"time"
)

// workload is one row of the benchmark: a fleet, a request stream and a way
// of offering it.
type workload struct {
	Name   string
	Why    string // one line, repeated in BENCHMARK.json
	server serverSpec
	zipf   float64 // 0: company ids uniform; else the skew of their popularity
	load   loadSpec
}

// The four workloads differ from scan-closed in one thing each: the index
// (-ann), the arrival process and popularity (open loop, zipf), the topology
// (router over two shards).
var workloads = []workload{
	{Name: "scan-closed", server: serverSpec{},
		Why: "exact ibserve, one closed-loop client, uniform ids: the cache never hits, so the score kernel and heap are the request"},
	{Name: "ann-closed", server: serverSpec{ann: true},
		Why: "same request file against ibserve -ann: pruning replaces the scan, the shell and HTTP stack dominate, recall is live"},
	{Name: "mix-open", server: serverSpec{}, zipf: 1.1, load: loadSpec{rate: 200},
		Why: "exact ibserve, open loop at 200 req/s, zipf 1.1: cache hits beside misses, waiting behind a slow answer and the tail show here"},
	{Name: "router-closed", server: serverSpec{shards: 2},
		Why: "the scan-closed request file through ibrouter over two shards: fan-out, shard hops and merge are over half the request"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	windows     = 5               // the measured span is cut into this many windows
	warmup      = 2 * time.Second // load before the measured span, not counted
	setupBoots  = 3               // cold boots behind setup_s
	tracedCount = 1000            // requests of the traced run
	// tracedSegment is the number of requests between two trace fetches. A
	// shard keeps two traces for a routed recommendation, and the binaries'
	// default ring holds 256.
	tracedSegment = 125
	// streamRate sizes the request file of the closed loops: enough requests
	// for a server ten times as fast as today's exact scan.
	streamRate = 4000
)

// environment is what every run in this process shares.
type environment struct {
	root    string // the checkout
	binDir  string
	workDir string // scratch of this process, removed on exit
	outDir  string
	art     *artefacts
}

// options are the command line's choices for one run.
type options struct {
	seed    int64
	seconds int
	trace   bool
}

// spanStats is the measured span of one run.
type spanStats struct {
	reduced
	Attempted     int        `json:"attempted"`
	Failed        int        `json:"failed"`
	FirstError    string     `json:"first_error,omitempty"`
	SLOShare      float64    `json:"slo_share"`
	EndpointP50ms [4]float64 `json:"endpoint_p50_ms"`
	EndpointOK    [4]int     `json:"endpoint_ok"`
	LateP99ms     float64    `json:"late_p99_ms"`
	CPUUserS      float64    `json:"cpu_user_s"`
	CPUSysS       float64    `json:"cpu_sys_s"`
	RSSMB         float64    `json:"rss_mb"`
	Wrapped       bool       `json:"stream_wrapped,omitempty"`
	HostStalls    int        `json:"host_stalls"`
	delta         flatMetrics
}

// measure warms the fleet up, then offers the workload's load for span and
// reduces what came back. Counters and CPU time are read at both ends of the
// span, between the warm-up and the first measured request.
func measure(ctx context.Context, wl workload, f *fleet, client *http.Client, stream []request, pos int,
	span time.Duration) (*spanStats, int, error) {
	base := "http://" + f.entry.addr
	if wl.load.rate > 0 {
		stop, err := keepWarm()
		if err != nil {
			return nil, 0, err
		}
		defer stop()
	}
	warm := runLoad(ctx, client, base, stream, pos, wl.load, warmup, 0, nil, nil)
	before, err := f.scrape()
	if err != nil {
		return nil, 0, err
	}
	use0, err := f.usage()
	if err != nil {
		return nil, 0, err
	}
	meter := &hostMeter{}
	res := runLoad(ctx, client, base, stream, warm.next, wl.load, span, 0, nil, meter)
	after, err := f.scrape()
	if err != nil {
		return nil, 0, err
	}
	use1, err := f.usage()
	if err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}

	st := &spanStats{
		reduced:   reduceWindows(res.samples, windows, span/windows, meter.slowdown(), wl.load.rate == 0),
		Attempted: res.attempted, Failed: res.failed, FirstError: res.firstErr,
		CPUUserS: use1.userS - use0.userS, CPUSysS: use1.sysS - use0.sysS, RSSMB: use1.hwmMB,
		Wrapped: res.wrapped || warm.wrapped, HostStalls: res.stalls,
		delta: after.sub(before),
	}
	// A request the host stalled is left out of slo_share like it is left out
	// of the percentiles; a failed one always counts as a miss.
	var within, stalled int
	var late []float64
	perEndpoint := make([][]float64, len(endpointNames))
	for _, s := range res.samples {
		late = append(late, ms(s.late))
		if !s.ok {
			continue
		}
		if s.stalled {
			stalled++
			continue
		}
		if s.latency <= sloLimit {
			within++
		}
		perEndpoint[s.endpoint] = append(perEndpoint[s.endpoint], ms(s.latency))
	}
	st.SLOShare = ratio(float64(within), float64(res.attempted-stalled))
	sort.Float64s(late)
	st.LateP99ms = quantile(late, 0.99)
	for ep, lat := range perEndpoint {
		st.EndpointOK[ep] = len(lat)
		st.EndpointP50ms[ep] = median(lat)
	}
	return st, res.next, nil
}

// recallCheck sends the fixed probes and compares each answer with the exact
// reference: recall is the share of reference ids served; identical means
// every answer had the reference's ids in the reference's order with scores
// equal bit for bit.
func recallCheck(client *http.Client, base string, probes []probeRef) (recall float64, identical bool, failed int, firstErr string) {
	identical = true
	var found, wanted int
	for _, p := range probes {
		req := request{Method: "GET", Path: fmt.Sprintf("/v1/similar/%d?k=%d", p.ID, probeK), K: probeK}
		status, body, err := exchange(client, base, &req, "")
		wanted += len(p.Matches)
		var a answer
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil {
			err = json.Unmarshal(body, &a)
		}
		if err != nil {
			failed++
			identical = false
			if firstErr == "" {
				firstErr = fmt.Sprintf("probe %s: %v", req.Path, err)
			}
			continue
		}
		ref := map[int]bool{}
		for _, m := range p.Matches {
			ref[m.ID] = true
		}
		if len(a.Matches) != len(p.Matches) {
			identical = false
		}
		for i, m := range a.Matches {
			if ref[m.ID] {
				found++
			}
			if i >= len(p.Matches) || m.ID != p.Matches[i].ID ||
				math.Float64bits(m.Score) != math.Float64bits(p.Matches[i].Score) {
				identical = false
			}
		}
	}
	return ratio(float64(found), float64(wanted)), identical, failed, firstErr
}

// tracedStats is the traced run of one workload.
type tracedStats struct {
	join      traceJoin
	p50ms     float64 // of the traced requests, host slowdown taken out
	attempted int
	failed    int
	firstErr  string
	delta     flatMetrics
}

// tracedRun boots the fleet with -trace -trace-sample 1, sends tracedCount
// requests with the driver's own trace ids and joins each client span with
// the span trees the processes kept. Trees are fetched between segments of
// tracedSegment requests, so the binaries keep their default trace ring.
func tracedRun(ctx context.Context, env *environment, wl workload, opt options, client *http.Client,
	stream []request, pos int) (*tracedStats, [][]string, error) {
	f, err := bootFleet(ctx, env, wl.server, "-trace", "-trace-sample", "1")
	if err != nil {
		return nil, nil, err
	}
	defer f.stop()
	base := "http://" + f.entry.addr
	if wl.load.rate > 0 {
		stop, err := keepWarm()
		if err != nil {
			return nil, nil, err
		}
		defer stop()
	}
	warm := runLoad(ctx, client, base, stream, pos, wl.load, 0, tracedSegment, nil, nil)
	before, err := f.scrape()
	if err != nil {
		return nil, nil, err
	}
	ts := &tracedStats{}
	shardProcs := f.procs[:wl.server.shards]
	var lat []float64
	meter := &hostMeter{}
	pos = warm.next
	for sent := 0; sent < tracedCount && ctx.Err() == nil; sent += tracedSegment {
		res := runLoad(ctx, client, base, stream, pos, wl.load, 0, tracedSegment,
			func(p int) string { return traceparent(opt.seed, p) }, meter)
		pos = res.next
		ts.attempted += res.attempted
		ts.failed += res.failed
		if ts.firstErr == "" {
			ts.firstErr = res.firstErr
		}
		for i, s := range res.samples {
			if !s.ok {
				continue
			}
			lat = append(lat, ms(s.latency))
			tid, sid := traceIDs(opt.seed, res.positions[i])
			entry, err := fetchTree(f.entry, tid)
			if err != nil {
				return nil, nil, err
			}
			var shardTrees []*traceTree
			for _, p := range shardProcs {
				t, err := fetchTree(p, tid)
				if err != nil {
					return nil, nil, err
				}
				shardTrees = append(shardTrees, t)
			}
			end := res.t0.Add(s.done)
			start := end.Add(-s.latency + s.late) // the send, which in the open loop is after the due time
			ts.join.add(tid, sid, s.endpoint, start, end, entry, shardTrees)
		}
	}
	after, err := f.scrape()
	if err != nil {
		return nil, nil, err
	}
	ts.delta = after.sub(before)
	ts.p50ms = median(lat) / meter.slowdown()
	return ts, f.cmdlines(), ctx.Err()
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload   string             `json:"workload"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Span       *spanStats         `json:"span"`
	BootsS     []float64          `json:"boots_s,omitempty"`
	Probes     int                `json:"recall_probes"`
	StreamSHA  string             `json:"stream_sha256"`
	StreamLen  int                `json:"stream_requests"`
	Cmdlines   [][]string         `json:"cmdlines"`
	Provenance provenance         `json:"provenance"`
}

// runWorkload is one run: with trace off, the timed run that yields the
// end-to-end metrics; with trace on, a shorter untraced span, the traced run
// and the layer probe, which yield the per-layer metrics.
func runWorkload(ctx context.Context, env *environment, wl workload, opt options) (*runResult, error) {
	res := &runResult{Workload: wl.Name, Trace: opt.trace, Metrics: map[string]float64{}, Provenance: provenanceOf(env, opt)}
	span := time.Duration(opt.seconds) * time.Second
	if opt.trace {
		span /= 2
	}

	// The stream is written before any server starts and replayed from the
	// file. Its length depends on the loop only, so the three closed-loop
	// workloads replay byte-identical files.
	perSecond := float64(streamRate)
	if wl.load.rate > 0 {
		perSecond = wl.load.rate
	}
	n := int(perSecond*(warmup+time.Duration(opt.seconds)*time.Second).Seconds()) + tracedCount + 2*tracedSegment
	streamPath := filepath.Join(env.workDir, "stream_"+wl.Name+".jsonl")
	sha, err := writeStream(streamPath, genStream(env.art.meta.Corpus, opt.seed, wl.zipf, n))
	if err != nil {
		return nil, err
	}
	stream, err := readStream(streamPath)
	if err != nil {
		return nil, err
	}
	res.StreamSHA, res.StreamLen = sha, len(stream)

	// Cold boots: the last fleet stays up for the measured span.
	boots := 1
	if !opt.trace {
		boots = setupBoots
	}
	var f *fleet
	defer func() { f.stop() }()
	for b := 0; b < boots; b++ {
		f.stop()
		if f, err = bootFleet(ctx, env, wl.server); err != nil {
			return nil, err
		}
		res.BootsS = append(res.BootsS, f.boot.Seconds())
	}
	res.Cmdlines = f.cmdlines()
	if wl.load.rate > 0 {
		res.Cmdlines = append(res.Cmdlines, warmCmdline)
	}

	client := newLoadClient()
	defer client.CloseIdleConnections()
	st, pos, err := measure(ctx, wl, f, client, stream, 0, span)
	if err != nil {
		return nil, err
	}
	res.Span = st
	res.Attempted, res.Failed = st.Attempted, st.Failed
	fail := func(format string, args ...any) { res.Errors = append(res.Errors, fmt.Sprintf(format, args...)) }
	if st.Failed > 0 {
		fail("%d of %d requests failed, first: %s", st.Failed, st.Attempted, st.FirstError)
	}

	recall, identical, probeFailed, probeErr := recallCheck(client, "http://"+f.entry.addr, env.art.meta.Probes)
	res.Probes = len(env.art.meta.Probes)
	res.Attempted += res.Probes
	res.Failed += probeFailed
	if probeFailed > 0 {
		fail("%d of %d recall probes failed, first: %s", probeFailed, res.Probes, probeErr)
	}
	if !wl.server.ann && !identical {
		// Every exact fleet, sharded or not, must serve the reference answer
		// itself, which also makes router-closed's answers equal scan-closed's.
		fail("exact workload served answers that differ from the in-process reference (recall %.4f)", recall)
	}

	if !opt.trace {
		res.Metrics["qps"] = st.QPS
		res.Metrics["p50_ms"] = st.P50ms
		res.Metrics["p99_ms"] = st.P99ms
		res.Metrics["slo_share"] = st.SLOShare
		res.Metrics["recall_at_10"] = recall
		res.Metrics["setup_s"] = median(res.BootsS)
		res.Metrics["rss_mb"] = st.RSSMB
	} else if err := layerRun(ctx, env, wl, opt, res, f, client, stream, pos); err != nil {
		return nil, err
	}
	res.Correct = len(res.Errors) == 0
	return res, nil
}

// layerRun fills the per-layer metrics: from the untraced span just
// measured, from one idle reload, from the traced run and from the layer
// probe.
func layerRun(ctx context.Context, env *environment, wl workload, opt options, res *runResult, f *fleet,
	client *http.Client, stream []request, pos int) error {
	st, m := res.Span, res.Metrics
	for ep, name := range endpointNames {
		m["serve."+name+".p50_ms"] = st.EndpointP50ms[ep]
	}
	m["p99_whole_ms"] = st.P99WholeMs
	m["max_ms"] = st.MaxMs
	m["load.late_p99_ms"] = st.LateP99ms
	m["proc.cpu_user_s"] = st.CPUUserS
	m["proc.cpu_sys_s"] = st.CPUSysS
	m["proc.cpu_ms_per_req"] = ratio(1000*(st.CPUUserS+st.CPUSysS), float64(st.Attempted-st.Failed))
	m["host.slowdown"] = st.Slowdown
	m["host.stalled_share"] = ratio(float64(st.Stalled), float64(st.Attempted))
	m["raw.qps"] = st.RawQPS
	m["raw.p50_ms"] = st.RawP50ms
	m["raw.p99_ms"] = st.RawP99ms

	d := st.delta
	m["serve.cache_hit_share"] = ratio(d["serve_cache_hits_total"], d["serve_cache_hits_total"]+d["serve_cache_misses_total"])
	m["serve.cache_evictions"] = d["serve_cache_evictions_total"]
	m["serve.throttled"] = d["serve_throttled_total"]
	m["core.topk_server_ms"] = 1000 * ratio(d["topk_latency_seconds:sum"], d["topk_latency_seconds:count"])
	m["core.whitespace_server_ms"] = 1000 * ratio(d["whitespace_latency_seconds:sum"], d["whitespace_latency_seconds:count"])
	m["router.partial"] = d["router_partial_responses_total"]
	routerRequests := d.sumPrefixSuffix("router_", "_requests_total")
	m["router.shard_calls_per_req"] = ratio(d.sumPrefixSuffix("router_shard", "_fanout_latency_seconds:count"), routerRequests)

	// One reload of an idle server: the write beside the reads.
	t := time.Now()
	resp, err := adminClient.Post("http://"+f.procs[0].addr+"/admin/reload", "application/json", nil)
	if err != nil {
		return fmt.Errorf("reload: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload: status %d", resp.StatusCode)
	}
	m["serve.reload_s"] = time.Since(t).Seconds()
	f.stop()

	ts, cmdlines, err := tracedRun(ctx, env, wl, opt, client, stream, pos)
	if err != nil {
		return err
	}
	res.Cmdlines = append(res.Cmdlines, cmdlines...)
	res.Attempted += ts.attempted
	res.Failed += ts.failed
	if ts.failed > 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("%d of %d traced requests failed, first: %s", ts.failed, ts.attempted, ts.firstErr))
	}
	if err := ts.join.write(filepath.Join(env.outDir, "trace_"+wl.Name+".json"), wl.Name, opt.seed); err != nil {
		return err
	}
	j := &ts.join
	m["client.request_ms"] = median(j.client)
	m["net.http_ms"] = median(j.net)
	m["serve.shell_self_ms"] = median(j.serveShell)
	m["core.topk_self_ms"] = median(j.topkSelf)
	m["core.whitespace_self_ms"] = median(j.whitespaceSelf)
	m["core.recommend_self_ms"] = median(j.recommendSelf)
	m["router.shell_self_ms"] = median(j.routerShell)
	m["trace.overhead_share"] = ratio(ts.p50ms, st.P50ms) - 1
	// Counted over the traced run's fixed number of requests, so that they
	// repeat exactly from run to run.
	td := ts.delta
	m["router.fanout_ms"] = 1000 * ratio(td.sumPrefixSuffix("router_shard", "_fanout_latency_seconds:sum"),
		td.sumPrefixSuffix("router_shard", "_fanout_latency_seconds:count"))
	m["core.rows_scanned_per_query"] = ratio(td["topk_candidates_admitted_total"]+td["topk_candidates_filtered_total"],
		td["topk_requests_total"])
	m["ann.candidate_share"] = ratio(td["ann_topk_candidates_scanned_total"],
		float64(env.art.meta.Corpus.Companies)*td["ann_topk_queries_total"])
	m["ann.cells_probed_per_query"] = ratio(td["ann_cells_probed_total"],
		td["ann_topk_queries_total"]+td["ann_whitespace_queries_total"])

	if err := layerProbe(env.art, opt.seed, env.workDir, m); err != nil {
		return err
	}
	for _, lm := range perLayer {
		if _, ok := m[lm.Name]; !ok {
			return errors.New("per-layer metric " + lm.Name + " was not measured")
		}
	}
	return nil
}
