package serve

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/trace"
)

// withWorkers pins the par pool size for a test (workers=1 makes shard scans
// sequential, so a traced root's duration deterministically bounds the sum of
// its shard children) and resets it to the default on cleanup. Restoring
// par.Workers() instead would pin the effective count (GOMAXPROCS) explicitly
// and leak it into every later test.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	par.SetWorkers(n)
	t.Cleanup(func() { par.SetWorkers(0) })
}

// newServeTracer returns a private enabled tracer so tests never mutate
// trace.Default(), which other packages share.
func newServeTracer(sample float64) *trace.Tracer {
	tr := trace.NewTracer(64)
	tr.SetEnabled(true)
	tr.SetSampleRate(sample)
	return tr
}

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// findSpans walks the exported tree depth-first collecting spans by name.
func findSpans(root *trace.SpanJSON, name string) []*trace.SpanJSON {
	var out []*trace.SpanJSON
	if root == nil {
		return out
	}
	if root.Name == name {
		out = append(out, root)
	}
	for _, c := range root.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

func attrValue(sp *trace.SpanJSON, key string) (string, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// TestTraceSpanTreeForSimilar drives traced /v1/similar queries and asserts
// the acceptance shape. An unfiltered query searches the cone tree on the
// request's goroutine: serve.similar -> core.topk, which carries
// leaves_visited and no par.shard child. A country-filtered one walks its
// candidate list as a task: serve.similar -> core.topk -> par.shard, with the
// root duration bounding the sum of the shard scans (workers=1 keeps the
// shards sequential so the inequality is deterministic, not probabilistic).
func TestTraceSpanTreeForSimilar(t *testing.T) {
	withWorkers(t, 1)
	tr := newServeTracer(1)
	s, _, _ := newTestServer(t, Config{Tracer: tr, Quiet: true, Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// get serves path and returns its trace and its one core.topk span.
	get := func(path string) (*trace.TraceJSON, *trace.SpanJSON) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		tp, ok := trace.ParseTraceparent(resp.Header.Get("traceparent"))
		if !ok {
			t.Fatalf("response traceparent %q did not parse", resp.Header.Get("traceparent"))
		}
		tj, ok := tr.Get(tp.TraceID.String())
		if !ok {
			t.Fatalf("trace %s not retained", tp.TraceID)
		}
		if tj.Name != "serve.similar" || tj.Root == nil || tj.Root.Name != "serve.similar" {
			t.Fatalf("root span %+v, want serve.similar", tj.Root)
		}
		if tj.Retained != trace.RetainedSampled {
			t.Fatalf("retained %q, want %q", tj.Retained, trace.RetainedSampled)
		}
		if v, ok := attrValue(tj.Root, "status"); !ok || v != "200" {
			t.Fatalf("root status attr %q ok=%v", v, ok)
		}
		if v, ok := attrValue(tj.Root, "path"); !ok || v != "/v1/similar/3" {
			t.Fatalf("root path attr %q ok=%v", v, ok)
		}
		topk := findSpans(tj.Root, "core.topk")
		if len(topk) != 1 {
			t.Fatalf("found %d core.topk spans, want 1", len(topk))
		}
		return tj, topk[0]
	}

	_, topk := get("/v1/similar/3?k=5")
	if v, _ := attrValue(topk, "leaves_visited"); v == "" || v == "0" {
		t.Fatalf("unfiltered core.topk leaves_visited %q, want at least 1", v)
	}
	if shards := findSpans(topk, "par.shard"); len(shards) != 0 {
		t.Fatalf("unfiltered core.topk has %d par.shard spans, want none: leaves are not tasks", len(shards))
	}

	tj, topk := get("/v1/similar/3?k=5&country=US")
	shards := findSpans(topk, "par.shard")
	if len(shards) == 0 {
		t.Fatal("no par.shard spans under a filtered core.topk")
	}
	var shardSum int64
	for _, sh := range shards {
		if _, ok := attrValue(sh, "shard"); !ok {
			t.Fatalf("par.shard span missing shard attr: %+v", sh)
		}
		shardSum += sh.DurUS
	}
	if topk.DurUS < shardSum {
		t.Fatalf("core.topk duration %dus < shard sum %dus", topk.DurUS, shardSum)
	}
	if tj.Root.DurUS < shardSum {
		t.Fatalf("root duration %dus < shard sum %dus", tj.Root.DurUS, shardSum)
	}
	if tj.Root.DurUS != tj.DurUS {
		t.Fatalf("trace duration %dus != root span %dus", tj.DurUS, tj.Root.DurUS)
	}
}

// TestTailSamplingRetention pins the retention rules end to end: at sample
// rate zero a fast successful request is sampled out, a failed request is
// always retained as an error, and once the slow threshold is below the
// request duration the next success is retained as slow.
func TestTailSamplingRetention(t *testing.T) {
	tr := newServeTracer(0)
	s, _, _ := newTestServer(t, Config{Tracer: tr, Quiet: true, Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mustGet := func(path string, want int) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	mustGet("/v1/similar/3?k=5", http.StatusOK)
	if got := tr.Traces("", 0, -1); len(got) != 0 {
		t.Fatalf("fast success retained at sample rate 0: %+v", got)
	}

	mustGet("/v1/similar/notanid?k=5", http.StatusBadRequest)
	errs := tr.Traces("serve.similar", 0, -1)
	if len(errs) != 1 {
		t.Fatalf("retained %d traces after failure, want 1", len(errs))
	}
	if !errs[0].Error || errs[0].Retained != trace.RetainedError {
		t.Fatalf("failure trace %+v, want retained=%q", errs[0], trace.RetainedError)
	}
	if tj, ok := tr.Get(errs[0].TraceID); !ok || tj.Root == nil || tj.Root.Error == "" {
		t.Fatalf("error trace tree missing root error: %+v", tj)
	}

	tr.SetSlowThreshold(time.Nanosecond)
	mustGet("/v1/similar/4?k=5", http.StatusOK)
	slow := tr.Traces("", 0, 1)
	if len(slow) != 1 || slow[0].Retained != trace.RetainedSlow {
		t.Fatalf("slow trace %+v, want retained=%q", slow, trace.RetainedSlow)
	}
}

// TestTraceparentPropagation sends a W3C traceparent header and asserts the
// server joins the caller's trace: same trace ID echoed with a fresh span ID,
// and the retained tree records the remote parent.
func TestTraceparentPropagation(t *testing.T) {
	const inbound = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	tr := newServeTracer(1)
	s, _, _ := newTestServer(t, Config{Tracer: tr, Quiet: true, Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/similar/5?k=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", inbound)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	echo, ok := trace.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("echoed traceparent %q did not parse", resp.Header.Get("traceparent"))
	}
	if echo.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("echoed trace ID %s, want the inbound one", echo.TraceID)
	}
	if echo.Parent.String() == "b7ad6b7169203331" {
		t.Fatal("echoed span ID is the caller's parent, want the server's root span")
	}

	tj, ok := tr.Get(echo.TraceID.String())
	if !ok {
		t.Fatal("joined trace not retained")
	}
	if tj.RemoteParent != "b7ad6b7169203331" {
		t.Fatalf("remote parent %q", tj.RemoteParent)
	}
	if tj.Root.ParentID != tj.RemoteParent {
		t.Fatalf("root parent %q != remote parent %q", tj.Root.ParentID, tj.RemoteParent)
	}
}

// traceInvarianceMetrics is every serving-path series the tracing work must
// not perturb: per-endpoint request/error counters plus the core scan
// counters underneath them.
var traceInvarianceMetrics = []string{
	"serve_similar_requests_total", "serve_similar_errors_total",
	"serve_recommend_requests_total", "serve_recommend_errors_total",
	"serve_whitespace_requests_total", "serve_whitespace_errors_total",
	"serve_infer_requests_total", "serve_infer_errors_total",
	"serve_throttled_total", "serve_cache_hits_total", "serve_cache_misses_total",
	"topk_requests_total", "topk_errors_total",
	"topk_candidates_admitted_total", "topk_candidates_filtered_total",
}

var traceInvarianceHistograms = []string{
	"serve_similar_latency_seconds", "serve_recommend_latency_seconds",
	"serve_whitespace_latency_seconds", "serve_infer_latency_seconds",
	"topk_latency_seconds",
}

func snapshotMetrics() map[string]uint64 {
	out := make(map[string]uint64, len(traceInvarianceMetrics)+len(traceInvarianceHistograms))
	for _, name := range traceInvarianceMetrics {
		out[name] = obs.Default().Counter(name, "").Value()
	}
	for _, name := range traceInvarianceHistograms {
		out[name+"_count"] = obs.Default().Histogram(name, "", nil).Count()
	}
	return out
}

// TestTracingMetricAndResponseInvariance runs an identical request mix
// against a tracing-off server and a tracing-on (sample rate 1) server and
// asserts the responses are byte-identical and every serving metric moved by
// exactly the same delta. This is the "off by default costs nothing, on
// changes nothing observable" acceptance criterion.
func TestTracingMetricAndResponseInvariance(t *testing.T) {
	type reqSpec struct {
		method, path, body string
		status             int
	}
	// Mix of cold queries, a cache-hit repeat, a POST body path and two
	// failure shapes so both requests and errors counters move.
	specs := []reqSpec{
		{http.MethodGet, "/v1/similar/3?k=5", "", http.StatusOK},
		{http.MethodGet, "/v1/similar/3?k=5", "", http.StatusOK}, // cache hit
		{http.MethodGet, "/v1/recommend/7?peers=5", "", http.StatusOK},
		{http.MethodPost, "/v1/whitespace", `{"clients":[1,2,3],"k":4}`, http.StatusOK},
		{http.MethodPost, "/v1/infer", `{"owned":[0,1],"k":3}`, http.StatusOK},
		{http.MethodGet, "/v1/similar/notanid", "", http.StatusBadRequest},
		{http.MethodPost, "/v1/whitespace", `{not json`, http.StatusBadRequest},
	}

	run := func(tracer *trace.Tracer) ([]string, map[string]uint64) {
		t.Helper()
		s, _, _ := newTestServer(t, Config{Tracer: tracer, Quiet: true, Logger: discardLogger()})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		before := snapshotMetrics()
		bodies := make([]string, 0, len(specs))
		for _, spec := range specs {
			req, err := http.NewRequest(spec.method, ts.URL+spec.path, strings.NewReader(spec.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != spec.status {
				t.Fatalf("%s %s: status %d, want %d", spec.method, spec.path, resp.StatusCode, spec.status)
			}
			bodies = append(bodies, string(body))
		}
		after := snapshotMetrics()
		deltas := make(map[string]uint64, len(after))
		for name, v := range after {
			deltas[name] = v - before[name]
		}
		return bodies, deltas
	}

	off := trace.NewTracer(16) // disabled: every span takes the nil fast path
	offBodies, offDeltas := run(off)
	onBodies, onDeltas := run(newServeTracer(1))

	for i := range specs {
		if offBodies[i] != onBodies[i] {
			t.Errorf("%s %s: response differs with tracing on\noff: %s\non:  %s",
				specs[i].method, specs[i].path, offBodies[i], onBodies[i])
		}
	}
	for name, want := range offDeltas {
		if got := onDeltas[name]; got != want {
			t.Errorf("metric %s: delta %d with tracing on, %d off", name, got, want)
		}
	}
	// Sanity: the mix exercised both success and failure counters.
	if offDeltas["serve_similar_requests_total"] == 0 || offDeltas["serve_similar_errors_total"] == 0 {
		t.Fatalf("request mix did not move both similar counters: %+v", offDeltas)
	}
	if got := off.Traces("", 0, -1); len(got) != 0 {
		t.Fatalf("disabled tracer retained %d traces", len(got))
	}
}

// TestConcurrentTracedLoad hammers a traced server from many goroutines with
// a mix of good and bad requests; under -race this exercises the span tree,
// ring rotation and tail-sampling paths concurrently. Every retained trace
// must still export as a coherent tree.
func TestConcurrentTracedLoad(t *testing.T) {
	tr := trace.NewTracer(8) // small ring so pushes wrap many times
	tr.SetEnabled(true)
	tr.SetSampleRate(1)
	s, _, _ := newTestServer(t, Config{Tracer: tr, Quiet: true, Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	paths := []string{
		"/v1/similar/1?k=3",
		"/v1/similar/2?k=4",
		"/v1/recommend/3?peers=4",
		"/v1/similar/notanid",
	}
	const workers = 8
	const perWorker = 16
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := ts.Client().Get(ts.URL + paths[(w+i)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()

	sums := tr.Traces("", 0, -1)
	if len(sums) == 0 || len(sums) > tr.Capacity() {
		t.Fatalf("retained %d traces, want 1..%d", len(sums), tr.Capacity())
	}
	for _, sum := range sums {
		tj, ok := tr.Get(sum.TraceID)
		if !ok {
			t.Fatalf("retained trace %s not gettable", sum.TraceID)
		}
		if tj.Root == nil || !strings.HasPrefix(tj.Root.Name, "serve.") {
			t.Fatalf("trace %s has malformed root: %+v", sum.TraceID, tj.Root)
		}
	}
}
