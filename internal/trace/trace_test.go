package trace

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestTracer returns an enabled tracer with full retention, the setup most
// tests want: every completed trace lands in the ring.
func newTestTracer(capacity int) *Tracer {
	t := NewTracer(capacity)
	t.SetEnabled(true)
	t.SetSampleRate(1)
	return t
}

func TestDisabledTracerNilFastPath(t *testing.T) {
	tr := NewTracer(4) // disabled by default
	ctx, sp := tr.Start(context.Background(), "root")
	if sp != nil {
		t.Fatalf("disabled tracer returned a live span: %+v", sp)
	}
	if FromContext(ctx) != nil {
		t.Fatal("disabled tracer stored a span in the context")
	}
	// Every method of the nil span must be an inert no-op.
	sp.Attr("k", "v")
	sp.AttrInt("n", 42)
	sp.Error(errors.New("boom"))
	if sp.Active() {
		t.Fatal("nil span reports Active")
	}
	if !sp.TraceID().IsZero() || !sp.SpanID().IsZero() {
		t.Fatal("nil span has non-zero IDs")
	}
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span End returned %v, want 0", d)
	}
	if got := tr.Traces("", 0, 0); len(got) != 0 {
		t.Fatalf("disabled tracer retained %d traces", len(got))
	}
}

func TestPackageStartNoopWithoutParentOrDefault(t *testing.T) {
	// The package-level Start must not create roots while the default tracer
	// is disabled (its boot state; other tests use private tracers).
	if Default().Enabled() {
		t.Skip("default tracer enabled by another test")
	}
	ctx, sp := Start(context.Background(), "orphan")
	if sp != nil {
		t.Fatal("Start created a root on the disabled default tracer")
	}
	if FromContext(ctx) != nil {
		t.Fatal("Start stored a span in the context")
	}
}

func TestSpanTreeExport(t *testing.T) {
	tr := newTestTracer(4)
	ctx, root := tr.Start(context.Background(), "serve.similar")
	root.Attr("method", "GET")
	cctx, child := Start(ctx, "core.topk")
	child.AttrInt("k", 10)
	_, grand := Start(cctx, "par.shard")
	grand.End()
	child.End()
	if got := len(tr.Traces("", 0, 0)); got != 0 {
		t.Fatalf("trace retained before root ended: %d", got)
	}
	root.End()

	tj, ok := tr.Get(root.TraceID().String())
	if !ok {
		t.Fatal("completed trace not retrievable by ID")
	}
	if tj.Name != "serve.similar" {
		t.Fatalf("trace name %q, want serve.similar", tj.Name)
	}
	if tj.Retained != RetainedSampled {
		t.Fatalf("retention reason %q, want %q", tj.Retained, RetainedSampled)
	}
	if tj.Spans != 3 || tj.DroppedSpans != 0 {
		t.Fatalf("spans=%d dropped=%d, want 3/0", tj.Spans, tj.DroppedSpans)
	}
	if tj.Root == nil || len(tj.Root.Children) != 1 {
		t.Fatalf("root has %d children, want 1", len(tj.Root.Children))
	}
	mid := tj.Root.Children[0]
	if mid.Name != "core.topk" || mid.ParentID != tj.Root.SpanID {
		t.Fatalf("child span %q parent %q, want core.topk under %q", mid.Name, mid.ParentID, tj.Root.SpanID)
	}
	if len(mid.Children) != 1 || mid.Children[0].Name != "par.shard" {
		t.Fatalf("grandchild missing: %+v", mid.Children)
	}
	// Root duration must cover its (sequential) children.
	var childSum int64
	for _, c := range tj.Root.Children {
		childSum += c.DurUS
	}
	if tj.Root.DurUS < childSum {
		t.Fatalf("root duration %dus < child sum %dus", tj.Root.DurUS, childSum)
	}
}

func TestTailSamplingErrorAlwaysRetained(t *testing.T) {
	tr := newTestTracer(4)
	tr.SetSampleRate(0) // fast, error-free traces must vanish
	_, ok1 := tr.Start(context.Background(), "fast")
	ok1.End()
	if got := len(tr.Traces("", 0, 0)); got != 0 {
		t.Fatalf("sample rate 0 retained %d traces", got)
	}
	_, bad := tr.Start(context.Background(), "failing")
	bad.Error(errors.New("boom"))
	bad.End()
	got := tr.Traces("", 0, 0)
	if len(got) != 1 {
		t.Fatalf("error trace not retained: %d traces", len(got))
	}
	if got[0].Retained != RetainedError || !got[0].Error {
		t.Fatalf("retention %q error=%v, want error/true", got[0].Retained, got[0].Error)
	}
}

func TestTailSamplingChildErrorRetainsTrace(t *testing.T) {
	tr := newTestTracer(4)
	tr.SetSampleRate(0)
	ctx, root := tr.Start(context.Background(), "root")
	_, child := Start(ctx, "child")
	child.Error(errors.New("inner failure"))
	child.End()
	root.End()
	got := tr.Traces("", 0, 0)
	if len(got) != 1 || got[0].Retained != RetainedError {
		t.Fatalf("child error did not retain trace: %+v", got)
	}
	tj, _ := tr.Get(got[0].TraceID)
	if len(tj.Root.Children) != 1 || tj.Root.Children[0].Error != "inner failure" {
		t.Fatalf("child error message lost: %+v", tj.Root.Children)
	}
}

func TestTailSamplingSlowAlwaysRetained(t *testing.T) {
	tr := newTestTracer(4)
	tr.SetSampleRate(0)
	tr.SetSlowThreshold(time.Nanosecond) // everything qualifies as slow
	_, sp := tr.Start(context.Background(), "slowpoke")
	time.Sleep(time.Microsecond)
	sp.End()
	got := tr.Traces("", 0, 0)
	if len(got) != 1 || got[0].Retained != RetainedSlow {
		t.Fatalf("slow trace not retained: %+v", got)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := newTestTracer(2)
	var ids []string
	for i := 0; i < 3; i++ {
		_, sp := tr.Start(context.Background(), "req")
		ids = append(ids, sp.TraceID().String())
		sp.End()
	}
	got := tr.Traces("", 0, 0)
	if len(got) != 2 {
		t.Fatalf("ring of 2 holds %d traces", len(got))
	}
	// Newest-first: the last two pushes, most recent first.
	if got[0].TraceID != ids[2] || got[1].TraceID != ids[1] {
		t.Fatalf("snapshot order %v, want [%s %s]", got, ids[2], ids[1])
	}
	if _, ok := tr.Get(ids[0]); ok {
		t.Fatal("evicted trace still retrievable")
	}
}

func TestTracesFilters(t *testing.T) {
	tr := newTestTracer(8)
	for _, name := range []string{"serve.similar", "serve.similar", "serve.recommend"} {
		_, sp := tr.Start(context.Background(), name)
		sp.End()
	}
	if got := tr.Traces("serve.similar", 0, 0); len(got) != 2 {
		t.Fatalf("endpoint filter returned %d, want 2", len(got))
	}
	if got := tr.Traces("serve.recommend", 0, 0); len(got) != 1 {
		t.Fatalf("endpoint filter returned %d, want 1", len(got))
	}
	if got := tr.Traces("", 0, 1); len(got) != 1 {
		t.Fatalf("limit 1 returned %d", len(got))
	}
	if got := tr.Traces("", time.Hour, 0); len(got) != 0 {
		t.Fatalf("min duration 1h returned %d", len(got))
	}
}

func TestMaxSpansCapCountsDrops(t *testing.T) {
	tr := newTestTracer(4)
	tr.SetMaxSpans(3) // root + 2 children
	ctx, root := tr.Start(context.Background(), "root")
	for i := 0; i < 5; i++ {
		_, sp := Start(ctx, "child")
		sp.End() // nil-safe for the dropped ones
	}
	root.End()
	tj, ok := tr.Get(root.TraceID().String())
	if !ok {
		t.Fatal("capped trace not retained")
	}
	if tj.Spans != 6 || tj.DroppedSpans != 3 {
		t.Fatalf("spans=%d dropped=%d, want 6/3", tj.Spans, tj.DroppedSpans)
	}
	if len(tj.Root.Children) != 2 {
		t.Fatalf("stored children %d, want 2", len(tj.Root.Children))
	}
}

func TestStartRemoteAdoptsTraceID(t *testing.T) {
	tr := newTestTracer(4)
	tp, ok := ParseTraceparent("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("seed traceparent did not parse")
	}
	_, sp := tr.StartRemote(context.Background(), tp, "serve.similar")
	if sp.TraceID() != tp.TraceID {
		t.Fatalf("remote trace ID not adopted: %s", sp.TraceID())
	}
	sp.End()
	tj, ok := tr.Get("0123456789abcdef0123456789abcdef")
	if !ok {
		t.Fatal("remote-joined trace not retrievable by the caller's ID")
	}
	if tj.RemoteParent != "00f067aa0ba902b7" {
		t.Fatalf("remote parent %q", tj.RemoteParent)
	}
	if tj.Root.ParentID != "00f067aa0ba902b7" {
		t.Fatalf("root parent ID %q, want the remote span", tj.Root.ParentID)
	}
}

func TestConcurrentChildSpans(t *testing.T) {
	tr := newTestTracer(4)
	ctx, root := tr.Start(context.Background(), "root")
	const workers = 16
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			_, sp := Start(ctx, "worker")
			sp.AttrInt("i", int64(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	tj, ok := tr.Get(root.TraceID().String())
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(tj.Root.Children) != workers {
		t.Fatalf("stored %d children, want %d", len(tj.Root.Children), workers)
	}
}

func TestWriteFile(t *testing.T) {
	tr := newTestTracer(4)
	_, sp := tr.Start(context.Background(), "ibtrain.train")
	sp.Attr("model", "lda")
	sp.End()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(sp.TraceID().String(), path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tj TraceJSON
	if err := json.Unmarshal(raw, &tj); err != nil {
		t.Fatalf("written trace is not valid JSON: %v", err)
	}
	if tj.Name != "ibtrain.train" || tj.TraceID != sp.TraceID().String() {
		t.Fatalf("written trace %q/%q", tj.Name, tj.TraceID)
	}
	if err := tr.WriteFile(strings.Repeat("0", 31)+"1", path); err == nil {
		t.Fatal("WriteFile succeeded for an unknown trace ID")
	}
}

func TestHTTPHandlers(t *testing.T) {
	tr := newTestTracer(8)
	_, sp := tr.Start(context.Background(), "serve.similar")
	sp.End()
	mux := http.NewServeMux()
	for _, rt := range Routes(tr) {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/traces?endpoint=serve.similar&limit=10")
	if err != nil {
		t.Fatal(err)
	}
	var list []Summary
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].Name != "serve.similar" {
		t.Fatalf("list: %+v", list)
	}

	resp, err = http.Get(srv.URL + "/debug/traces/" + list[0].TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var tj TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tj); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tj.Root == nil || tj.Root.Name != "serve.similar" {
		t.Fatalf("get: %+v", tj)
	}

	resp, err = http.Get(srv.URL + "/debug/traces/" + strings.Repeat("f", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ID returned %d, want 404", resp.StatusCode)
	}

	// Empty buffers must render as [] rather than null.
	empty := newTestTracer(2)
	rec := httptest.NewRecorder()
	empty.listHandler(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if got := strings.TrimSpace(rec.Body.String()); got != "[]" {
		t.Fatalf("empty list rendered %q, want []", got)
	}
}

// TestListHandlerQueryFilters pins the /debug/traces query-parameter
// contract at the handler level: endpoint is an exact root-span match (no
// prefixes), min_ms and limit filter and truncate, and invalid values fall
// back (bad or non-positive limit → the default 50, bad or non-positive
// min_ms → 0, i.e. no duration filter) instead of erroring.
func TestListHandlerQueryFilters(t *testing.T) {
	tr := newTestTracer(16)
	_, slow := tr.Start(context.Background(), "serve.similar")
	time.Sleep(30 * time.Millisecond)
	slow.End()
	for i := 0; i < 3; i++ {
		_, sp := tr.Start(context.Background(), "serve.similar")
		sp.End()
	}
	_, sp := tr.Start(context.Background(), "serve.recommend")
	sp.End()

	list := func(query string) []Summary {
		t.Helper()
		rec := httptest.NewRecorder()
		tr.listHandler(rec, httptest.NewRequest("GET", "/debug/traces"+query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /debug/traces%s = %d, want 200", query, rec.Code)
		}
		var out []Summary
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("unmarshal %s: %v", query, err)
		}
		return out
	}

	if got := list(""); len(got) != 5 {
		t.Fatalf("unfiltered list = %d traces, want 5", len(got))
	}
	if got := list("?endpoint=serve.similar"); len(got) != 4 {
		t.Fatalf("endpoint=serve.similar = %d, want 4", len(got))
	}
	// Exact match only: a prefix of a real root-span name matches nothing.
	if got := list("?endpoint=serve.simil"); len(got) != 0 {
		t.Fatalf("endpoint=serve.simil = %d, want 0 (exact match only)", len(got))
	}
	if got := list("?limit=2"); len(got) != 2 {
		t.Fatalf("limit=2 = %d, want 2", len(got))
	}
	// min_ms keeps the slow trace and drops the sub-millisecond ones.
	got := list("?min_ms=10")
	found := false
	for _, s := range got {
		if s.TraceID == slow.TraceID().String() {
			found = true
		}
	}
	if !found {
		t.Fatalf("min_ms=10 = %+v, want the 30ms trace included", got)
	}
	if got := list("?min_ms=3600000"); len(got) != 0 {
		t.Fatalf("min_ms=1h = %d, want 0", len(got))
	}
	// Past what a Duration holds the bound clamps to the longest one instead
	// of overflowing to a negative value, which would filter nothing.
	for _, q := range []string{"?min_ms=9.3e12", "?min_ms=1e13", "?min_ms=1e300", "?min_ms=Inf", "?min_ms=%2BInf"} {
		if got := list(q); len(got) != 0 {
			t.Fatalf("%s = %d traces, want 0", q, len(got))
		}
	}

	// Invalid fallbacks: bad/zero/negative limit falls back to the default 50,
	// bad/negative min_ms to 0 — both render the full buffer here.
	for _, q := range []string{"?limit=abc", "?limit=0", "?limit=-3", "?min_ms=abc", "?min_ms=-5"} {
		if got := list(q); len(got) != 5 {
			t.Fatalf("%s = %d traces, want the fallback full list of 5", q, len(got))
		}
	}
	// Valid and invalid parameters combine independently.
	if got := list("?endpoint=serve.recommend&limit=abc&min_ms=-1"); len(got) != 1 {
		t.Fatalf("combined query = %d, want 1", len(got))
	}
}

func TestSetCapacityResetsRing(t *testing.T) {
	tr := newTestTracer(2)
	_, sp := tr.Start(context.Background(), "req")
	sp.End()
	tr.SetCapacity(8)
	if tr.Capacity() != 8 {
		t.Fatalf("capacity %d, want 8", tr.Capacity())
	}
	if got := len(tr.Traces("", 0, 0)); got != 0 {
		t.Fatalf("SetCapacity kept %d traces", got)
	}
}

func TestSampleRateClamped(t *testing.T) {
	tr := NewTracer(2)
	tr.SetSampleRate(-0.5)
	if got := tr.SampleRate(); got != 0 {
		t.Fatalf("negative rate stored as %v", got)
	}
	tr.SetSampleRate(7)
	if got := tr.SampleRate(); got != 1 {
		t.Fatalf("rate > 1 stored as %v", got)
	}
}
