package serve

import (
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/proctest"
	"repro/internal/rng"
	"repro/internal/trace"
)

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

func attrValue(sp *trace.SpanJSON, key string) (string, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// TestTraceSpanTreeForSimilar drives traced /v1/similar queries and asserts
// the acceptance shape. Every exact scan searches a cone tree on the
// request's goroutine: serve.similar -> core.topk, which carries
// leaves_visited and no par.shard child — unfiltered, filtered by country
// (its candidate list's tree) or by a range bound (the index's tree, the
// bound tested row by row) — and the root span lasts as long as the trace.
func TestTraceSpanTreeForSimilar(t *testing.T) {
	tr := newServeTracer(1)
	s, _, _ := newTestServer(t, Config{Tracer: tr, Quiet: true, Logger: discardLogger()})
	h := s.Handler()

	// get serves path and returns its trace and its one core.topk span.
	get := func(path string) (*trace.TraceJSON, *trace.SpanJSON) {
		t.Helper()
		resp := fetch(h, http.MethodGet, path, "")
		if resp.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.Code)
		}
		sent := resp.Result().Header.Get("traceparent")
		tp, ok := trace.ParseTraceparent(sent)
		if !ok {
			t.Fatalf("response traceparent %q did not parse", sent)
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
		topk := proctest.Spans(tj.Root, "core.topk")
		if len(topk) != 1 {
			t.Fatalf("found %d core.topk spans, want 1", len(topk))
		}
		return tj, topk[0]
	}

	for _, query := range []string{"", "&country=US", "&min_employees=1"} {
		tj, topk := get("/v1/similar/3?k=5" + query)
		if v, _ := attrValue(topk, "leaves_visited"); v == "" || v == "0" {
			t.Fatalf("core.topk of %q leaves_visited %q, want at least 1", query, v)
		}
		if shards := proctest.Spans(topk, "par.shard"); len(shards) != 0 {
			t.Fatalf("core.topk of %q has %d par.shard spans, want none: leaves are not tasks", query, len(shards))
		}
		if topk.DurUS > tj.Root.DurUS {
			t.Fatalf("core.topk of %q lasts %dus, its root %dus", query, topk.DurUS, tj.Root.DurUS)
		}
		if tj.Root.DurUS != tj.DurUS {
			t.Fatalf("trace duration %dus != root span %dus", tj.DurUS, tj.Root.DurUS)
		}
	}
}

// TestTailSamplingRetention pins the retention rules end to end: at sample
// rate zero a fast successful request is sampled out, a failed request is
// always retained as an error, and once the slow threshold is below the
// request duration the next success is retained as slow.
func TestTailSamplingRetention(t *testing.T) {
	tr := newServeTracer(0)
	s, _, _ := newTestServer(t, Config{Tracer: tr, Quiet: true, Logger: discardLogger()})
	h := s.Handler()

	mustGet := func(path string, want int) {
		t.Helper()
		if resp := fetch(h, http.MethodGet, path, ""); resp.Code != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.Code, want)
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
	h := s.Handler()

	resp := fetch(h, http.MethodGet, "/v1/similar/5?k=3", "", "traceparent", inbound)

	sent := resp.Result().Header.Get("traceparent")
	echo, ok := trace.ParseTraceparent(sent)
	if !ok {
		t.Fatalf("echoed traceparent %q did not parse", sent)
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

// TestTracingMetricAndResponseInvariance runs the serving oracle with tracing
// on at sample rate 1 in every round, so each round's twin (tracing off) must
// answer the same bytes and move every counter it moves by the same delta.
// A disabled tracer keeps no trace of the traffic.
func TestTracingMetricAndResponseInvariance(t *testing.T) {
	serveOracle(t, 6001, 1, func(v *variant) { v.trace, v.binary = 1, 0 })
	g := rng.New(6)
	fx := drawFixture(g)
	d := deploy(t, fx, oracleModels(t), variant{})
	defer d.close()
	for _, rq := range drawRequests(g, fx, d.servers[0].Index()) {
		d.send(rq, true)
	}
	if got := d.tracer.Traces("", 0, -1); len(got) != 0 {
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
	h := s.Handler()

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
				fetch(h, http.MethodGet, paths[(w+i)%len(paths)], "")
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
