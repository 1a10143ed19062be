package main

// metricDef names one metric the way BENCHMARK.json does. Bound is the share
// of the parent's median by which an end-to-end metric may worsen before the
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user or operator of the service sees, in the
// order the report prints them. TestBenchmarkJSONMatches keeps BENCHMARK.json
// in step with this table.
var endToEnd = []metricDef{
	{"qps", "req/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"slo_share", "share", "higher", 0.02},
	{"recall_at_10", "share", "higher", 0.005},
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.10},
}

// perLayer are the numbers of single layers, in the order of the README's
// tables: the untraced span as the client saw it, the binaries' own counters,
// the traced run, and the in-process probe of the build side and the query
// side.
var perLayer = []metricDef{
	{"serve.similar.p50_ms", "ms", "lower", 0},
	{"serve.recommend.p50_ms", "ms", "lower", 0},
	{"serve.whitespace.p50_ms", "ms", "lower", 0},
	{"serve.infer.p50_ms", "ms", "lower", 0},
	{"p99_whole_ms", "ms", "lower", 0},
	{"max_ms", "ms", "lower", 0},
	{"load.late_p99_ms", "ms", "lower", 0},
	{"proc.cpu_ms_per_req", "ms", "lower", 0},
	{"proc.cpu_user_s", "s", "lower", 0},
	{"proc.cpu_sys_s", "s", "lower", 0},
	{"host.slowdown", "x", "lower", 0},
	{"host.stalled_share", "share", "lower", 0},
	{"raw.qps", "req/s", "higher", 0},
	{"raw.p50_ms", "ms", "lower", 0},
	{"raw.p99_ms", "ms", "lower", 0},

	{"serve.cache_hit_share", "share", "higher", 0},
	{"serve.cache_evictions", "count", "lower", 0},
	{"serve.throttled", "count", "lower", 0},
	{"core.rows_scanned_per_query", "count", "lower", 0},
	{"core.topk_server_ms", "ms", "lower", 0},
	{"core.whitespace_server_ms", "ms", "lower", 0},
	{"ann.candidate_share", "share", "lower", 0},
	{"ann.cells_probed_per_query", "count", "lower", 0},
	{"router.partial", "count", "lower", 0},
	{"router.shard_calls_per_req", "count", "lower", 0},

	{"client.request_ms", "ms", "lower", 0},
	{"net.http_ms", "ms", "lower", 0},
	{"serve.shell_self_ms", "ms", "lower", 0},
	{"core.topk_self_ms", "ms", "lower", 0},
	{"core.whitespace_self_ms", "ms", "lower", 0},
	{"core.recommend_self_ms", "ms", "lower", 0},
	{"router.shell_self_ms", "ms", "lower", 0},
	{"router.fanout_ms", "ms", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},

	{"datagen.gen_s", "s", "lower", 0},
	{"lda.train_s", "s", "lower", 0},
	{"corpus.load_s", "s", "lower", 0},
	{"lda.load_ms", "ms", "lower", 0},
	{"lda.representations_s", "s", "lower", 0},
	{"core.newindex_ms", "ms", "lower", 0},
	{"ann.build_s", "s", "lower", 0},
	{"ann.load_ms", "ms", "lower", 0},
	{"serve.reload_s", "s", "lower", 0},

	{"core.topk_us", "us", "lower", 0},
	{"core.topk_filtered_us", "us", "lower", 0},
	{"core.topk_allocs", "count", "lower", 0},
	{"core.whitespace_us", "us", "lower", 0},
	{"core.recommend_us", "us", "lower", 0},
	{"core.scoreblock_ns_per_row", "ns", "lower", 0},
	{"core.bytes_scanned_per_query", "B", "lower", 0},
	{"core.merge_us", "us", "lower", 0},
	{"ann.candidates_us", "us", "lower", 0},
	{"core.topk_ann_us", "us", "lower", 0},
	{"lda.infer_us", "us", "lower", 0},
	{"serve.handler_hit_us", "us", "lower", 0},
	{"serve.handler_miss_us", "us", "lower", 0},
	{"serve.handler_allocs", "count", "lower", 0},
	{"router.handler_us", "us", "lower", 0},
}
