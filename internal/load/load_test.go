package load

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/trace"
)

// testCorpus mirrors the serve fixture: 40 companies with attribute variety.
func testCorpus() *corpus.Corpus {
	cat := corpus.DefaultCatalog()
	m := cat.Size()
	countries := []string{"US", "DE", "GB"}
	companies := make([]corpus.Company, 40)
	for i := range companies {
		companies[i] = corpus.Company{
			ID:        i,
			Name:      fmt.Sprintf("co-%02d", i),
			Country:   countries[i%len(countries)],
			SIC2:      70 + i%4,
			Employees: 50 + i*37%900,
			RevenueM:  float64(5 + i*11%200),
			Acquisitions: []corpus.Acquisition{
				{Category: i % m, First: corpus.Month(i % 12)},
				{Category: (i*5 + 2) % m, First: corpus.Month(i%12 + 1)},
			},
		}
		companies[i].SortAcquisitions()
	}
	return corpus.New(cat, companies)
}

func TestGeneratorDeterministicAndWellFormed(t *testing.T) {
	c := testCorpus()
	const n = 300
	genA := NewGenerator(c, GenConfig{Seed: 42})
	genB := NewGenerator(c, GenConfig{Seed: 42})
	counts := map[string]int{}
	hot := map[string]int{}
	for i := 0; i < n; i++ {
		a, b := genA.Next(), genB.Next()
		if a.Path != b.Path || string(a.Body) != string(b.Body) || a.Traceparent != b.Traceparent {
			t.Fatalf("request %d diverged between identical seeds:\n%+v\n%+v", i, a, b)
		}
		counts[a.Endpoint]++
		if a.Endpoint == "similar" || a.Endpoint == "recommend" {
			hot[strings.Split(strings.TrimPrefix(a.Path, "/v1/"), "?")[0]]++
		}
		tp, ok := trace.ParseTraceparent(a.Traceparent)
		if !ok {
			t.Fatalf("request %d traceparent %q does not parse", i, a.Traceparent)
		}
		if tp.TraceID.String() != a.TraceID {
			t.Fatalf("request %d TraceID %s != traceparent %s", i, a.TraceID, tp.TraceID)
		}
		switch a.Endpoint {
		case "similar", "recommend":
			if a.Method != "GET" || a.Body != nil {
				t.Fatalf("GET endpoint with body: %+v", a)
			}
			var id int
			if _, err := fmt.Sscanf(a.Path, "/v1/"+a.Endpoint+"/%d", &id); err != nil {
				t.Fatalf("unparseable path %q: %v", a.Path, err)
			}
			if id < 0 || id >= c.N() {
				t.Fatalf("company id %d outside corpus [0,%d)", id, c.N())
			}
		case "whitespace":
			var body struct {
				Clients []int `json:"clients"`
				K       int   `json:"k"`
			}
			if err := json.Unmarshal(a.Body, &body); err != nil || len(body.Clients) < 2 || body.K == 0 {
				t.Fatalf("whitespace body %s: %v", a.Body, err)
			}
		case "infer":
			var body struct {
				Owned []int `json:"owned"`
			}
			if err := json.Unmarshal(a.Body, &body); err != nil || len(body.Owned) == 0 {
				t.Fatalf("infer body %s: %v", a.Body, err)
			}
			for _, cat := range body.Owned {
				if cat < 0 || cat >= c.M() {
					t.Fatalf("owned category %d outside vocab [0,%d)", cat, c.M())
				}
			}
		default:
			t.Fatalf("unknown endpoint %q", a.Endpoint)
		}
	}
	// The default mix must produce every endpoint, similar most often.
	for _, e := range []string{"similar", "recommend", "whitespace", "infer"} {
		if counts[e] == 0 {
			t.Fatalf("endpoint %s never generated: %v", e, counts)
		}
	}
	if counts["similar"] <= counts["infer"] {
		t.Fatalf("mix weights ignored: %v", counts)
	}
	// Zipf skew concentrates traffic: the hottest target must see far more
	// than a uniform share (n_targets=40, so uniform ~ n/40).
	var maxHits int
	for _, h := range hot {
		if h > maxHits {
			maxHits = h
		}
	}
	uniform := (counts["similar"] + counts["recommend"]) / c.N()
	if maxHits < 3*uniform {
		t.Fatalf("no popularity skew: hottest company got %d hits, uniform share is %d", maxHits, uniform)
	}

	// A different seed produces a different stream.
	genC := NewGenerator(c, GenConfig{Seed: 43})
	diverged := false
	genA2 := NewGenerator(c, GenConfig{Seed: 42})
	for i := 0; i < 20; i++ {
		if genA2.Next().Path != genC.Next().Path {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 generated identical streams")
	}
}

func TestMixGatesEndpoints(t *testing.T) {
	c := testCorpus()
	gen := NewGenerator(c, GenConfig{Seed: 7, Mix: Mix{Similar: 1}})
	for i := 0; i < 50; i++ {
		if r := gen.Next(); r.Endpoint != "similar" {
			t.Fatalf("similar-only mix generated %q", r.Endpoint)
		}
	}
}

// TestOpenLoopChargesBacklogToServer pins the coordinated-omission
// correction: a server whose service time exceeds the arrival interval falls
// behind, and the open-loop latencies — measured from scheduled departure —
// must grow far beyond the service time. A closed-loop run against the same
// server reports roughly the bare service time.
func TestOpenLoopChargesBacklogToServer(t *testing.T) {
	const service = 30 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := testCorpus()

	open, err := Run(context.Background(), NewGenerator(c, GenConfig{Seed: 1, Mix: Mix{Similar: 1}}), Config{
		BaseURL:     srv.URL,
		OpenLoop:    true,
		Rate:        50, // 20ms interval < 30ms service: guaranteed backlog
		Concurrency: 1,
		Duration:    400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if open.Total.Requests < 15 {
		t.Fatalf("open loop measured %d requests", open.Total.Requests)
	}
	if open.Total.Errors != 0 {
		t.Fatalf("open loop errors: %+v", open.Total)
	}
	if !open.CoordinatedOmissionCorrected || open.Mode != "open" || open.TargetQPS != 50 {
		t.Fatalf("open report metadata %+v", open)
	}
	serviceMS := float64(service) / float64(time.Millisecond)
	if open.Total.MaxMS < 3*serviceMS {
		t.Fatalf("open-loop max %.1fms does not charge the backlog (service %.0fms)",
			open.Total.MaxMS, serviceMS)
	}

	closed, err := Run(context.Background(), NewGenerator(c, GenConfig{Seed: 1, Mix: Mix{Similar: 1}}), Config{
		BaseURL:     srv.URL,
		Concurrency: 2,
		Duration:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if closed.Total.Requests == 0 || closed.Mode != "closed" || closed.CoordinatedOmissionCorrected {
		t.Fatalf("closed report %+v", closed)
	}
	// Closed-loop latency is pure service time: comfortably under the
	// open-loop backlog tail.
	if closed.Total.P50MS >= open.Total.MaxMS {
		t.Fatalf("closed p50 %.1fms >= open max %.1fms", closed.Total.P50MS, open.Total.MaxMS)
	}
}

func TestReportShapeWarmupAndWriteFile(t *testing.T) {
	var recommendHits atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/recommend/") {
			recommendHits.Add(1)
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		if r.Header.Get("traceparent") == "" {
			http.Error(w, `{"error":"no traceparent"}`, http.StatusBadRequest)
			return
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := testCorpus()

	rep, err := Run(context.Background(), NewGenerator(c, GenConfig{Seed: 5}), Config{
		BaseURL:     srv.URL,
		OpenLoop:    true,
		Rate:        200,
		Concurrency: 8,
		Duration:    300 * time.Millisecond,
		Warmup:      100 * time.Millisecond,
		Trace:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WarmupRequests == 0 {
		t.Fatalf("no warmup requests recorded: %+v", rep)
	}
	var endpointSum int
	for name, e := range rep.Endpoints {
		endpointSum += e.Requests
		if name == "recommend" {
			if e.Errors != e.Requests || e.ErrorRate != 1 {
				t.Fatalf("recommend endpoint must be all errors: %+v", e)
			}
		} else if e.Errors != 0 {
			t.Fatalf("%s endpoint has unexpected errors (traceparent missing?): %+v", name, e)
		}
		if e.Requests > 0 {
			if e.SlowestTraceID == "" {
				t.Fatalf("%s missing slowest_trace_id with tracing on: %+v", name, e)
			}
			if _, ok := trace.ParseTraceID(e.SlowestTraceID); !ok {
				t.Fatalf("%s slowest_trace_id %q invalid", name, e.SlowestTraceID)
			}
			if e.P50MS > e.P99MS || e.P99MS > e.MaxMS {
				t.Fatalf("%s quantiles out of order: %+v", name, e)
			}
		}
	}
	if endpointSum != rep.Total.Requests {
		t.Fatalf("endpoint requests sum %d != total %d", endpointSum, rep.Total.Requests)
	}
	if rep.Total.QPS <= 0 || rep.WarmupSec != 0.1 {
		t.Fatalf("report timing %+v", rep)
	}
	if recommendHits.Load() == 0 {
		t.Fatal("mix never hit recommend")
	}

	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report does not round-trip: %v\n%s", err, raw)
	}
	if back.Total.Requests != rep.Total.Requests || back.Mode != "open" {
		t.Fatalf("round-tripped report differs: %+v vs %+v", back.Total, rep.Total)
	}

	// With Trace off, no traceparent is sent (the stub 400s those) and no
	// slowest_trace_id is reported.
	rep2, err := Run(context.Background(), NewGenerator(c, GenConfig{Seed: 5, Mix: Mix{Similar: 1}}), Config{
		BaseURL:  srv.URL,
		OpenLoop: true,
		Rate:     100,
		Duration: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Total.Requests == 0 || rep2.Total.Errors != rep2.Total.Requests {
		t.Fatalf("trace-off run should have been all 400s: %+v", rep2.Total)
	}
	if rep2.Total.SlowestTraceID != "" {
		t.Fatalf("trace-off report names a trace: %+v", rep2.Total)
	}
}

// TestErrorSplitAndPartialCounts pins the transport/HTTP error split and the
// partial-response counter: a stub that 500s one endpoint and marks another
// X-Partial yields only errors_http and partial_responses; a dead base URL
// yields only errors_transport. Errors stays the sum of both classes.
func TestErrorSplitAndPartialCounts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/v1/recommend/"):
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		case strings.HasPrefix(r.URL.Path, "/v1/similar/"):
			w.Header().Set("X-Partial", "true")
			w.Write([]byte(`{"partial":true}`))
		default:
			w.Write([]byte("{}"))
		}
	}))
	defer srv.Close()
	c := testCorpus()

	rep, err := Run(context.Background(), NewGenerator(c, GenConfig{Seed: 11}), Config{
		BaseURL:     srv.URL,
		OpenLoop:    true,
		Rate:        300,
		Concurrency: 8,
		Duration:    300 * time.Millisecond,
		Label:       "stub",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Label != "stub" {
		t.Fatalf("label not recorded: %+v", rep)
	}
	tot := rep.Total
	if tot.ErrorsTransport != 0 {
		t.Fatalf("live stub produced transport errors: %+v", tot)
	}
	if tot.ErrorsHTTP == 0 || tot.ErrorsHTTP != tot.Errors {
		t.Fatalf("HTTP errors not counted as such: %+v", tot)
	}
	if tot.Partial == 0 {
		t.Fatalf("X-Partial responses not counted: %+v", tot)
	}
	sim := rep.Endpoints["similar"]
	if sim.Partial != sim.Requests || sim.Errors != 0 {
		t.Fatalf("every similar answer was partial and successful: %+v", sim)
	}
	rec := rep.Endpoints["recommend"]
	if rec.ErrorsHTTP != rec.Requests || rec.ErrorsTransport != 0 || rec.Partial != 0 {
		t.Fatalf("recommend must be all HTTP errors: %+v", rec)
	}

	// Transport class: a base URL nothing listens on. Grab a port that was
	// just released so the dials fail fast with connection refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	rep2, err := Run(context.Background(), NewGenerator(c, GenConfig{Seed: 11, Mix: Mix{Similar: 1}}), Config{
		BaseURL:  deadURL,
		OpenLoop: true,
		Rate:     200,
		Duration: 150 * time.Millisecond,
		Timeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot2 := rep2.Total
	if tot2.Requests == 0 || tot2.ErrorsTransport != tot2.Requests {
		t.Fatalf("dead server must be all transport errors: %+v", tot2)
	}
	if tot2.ErrorsHTTP != 0 || tot2.Errors != tot2.ErrorsTransport || tot2.Partial != 0 {
		t.Fatalf("transport run miscounted: %+v", tot2)
	}
}

// TestRunCancellation stops an open-loop run early and keeps the partial
// results.
func TestRunCancellation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	rep, err := Run(ctx, NewGenerator(testCorpus(), GenConfig{Seed: 2, Mix: Mix{Similar: 1}}), Config{
		BaseURL:  srv.URL,
		OpenLoop: true,
		Rate:     100,
		Duration: 10 * time.Second, // cancelled long before this
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Requests == 0 || rep.Total.Requests > 100 {
		t.Fatalf("cancelled run measured %d requests", rep.Total.Requests)
	}
}
