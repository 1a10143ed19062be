package core

import (
	"bytes"
	"context"
	"strings"

	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/obs"
)

// fixture: 6 companies with 3-dimensional topic representations forming two
// groups (hardware-ish rows 0-2, software-ish rows 3-5).
// columnsOf returns c's columns, what NewShardIndex indexes.
func columnsOf(t testing.TB, c *corpus.Corpus) *corpus.Columns {
	t.Helper()
	cols, err := c.Columns()
	if err != nil {
		t.Fatal(err)
	}
	return cols
}

func fixture() (*corpus.Corpus, *mat.Matrix) {
	cat := corpus.DefaultCatalog()
	companies := []corpus.Company{
		{ID: 0, Name: "HW-A", Country: "US", SIC2: 80, Employees: 100, RevenueM: 10,
			Acquisitions: []corpus.Acquisition{{Category: 0, First: 0}, {Category: 1, First: 1}}},
		{ID: 1, Name: "HW-B", Country: "US", SIC2: 80, Employees: 5000, RevenueM: 900,
			Acquisitions: []corpus.Acquisition{{Category: 0, First: 0}, {Category: 2, First: 1}}},
		{ID: 2, Name: "HW-C", Country: "DE", SIC2: 73, Employees: 50, RevenueM: 5,
			Acquisitions: []corpus.Acquisition{{Category: 1, First: 0}, {Category: 3, First: 1}}},
		{ID: 3, Name: "SW-A", Country: "US", SIC2: 73, Employees: 200, RevenueM: 20,
			Acquisitions: []corpus.Acquisition{{Category: 10, First: 0}, {Category: 11, First: 1}}},
		{ID: 4, Name: "SW-B", Country: "US", SIC2: 73, Employees: 300, RevenueM: 30,
			Acquisitions: []corpus.Acquisition{{Category: 10, First: 0}, {Category: 12, First: 1}}},
		{ID: 5, Name: "SW-C", Country: "GB", SIC2: 82, Employees: 400, RevenueM: 40,
			Acquisitions: []corpus.Acquisition{{Category: 11, First: 0}, {Category: 13, First: 1}}},
	}
	c := corpus.New(cat, companies)
	reps := mat.FromSlice(6, 3, []float64{
		0.9, 0.05, 0.05,
		0.85, 0.1, 0.05,
		0.8, 0.15, 0.05,
		0.05, 0.9, 0.05,
		0.1, 0.85, 0.05,
		0.15, 0.8, 0.05,
	})
	return c, reps
}

func TestNewIndexValidation(t *testing.T) {
	c, reps := fixture()
	if _, err := NewIndex(c, mat.New(3, 2), Cosine); err == nil {
		t.Fatal("row mismatch accepted")
	}
	if _, err := NewIndex(c, mat.New(6, 0), Cosine); err == nil {
		t.Fatal("zero-dim reps accepted")
	}
	if _, err := NewIndex(c, reps, Metric(1)); err == nil {
		t.Fatal("a metric other than cosine accepted")
	}
	if _, err := NewIndex(c, reps, Cosine); err != nil {
		t.Fatal(err)
	}
}

// TestNewIndexRequiresIDEqualsRow: answers name companies by row, so a corpus
// whose ids differ from their rows (JSONL ids 10, 20, 30, or one id out of
// place) is refused with the first offending row named.
func TestNewIndexRequiresIDEqualsRow(t *testing.T) {
	for _, tc := range []struct {
		ids  []int
		want string
	}{
		{[]int{10, 20, 30, 3, 4, 5}, "row 0 has id 10"},
		{[]int{0, 1, 2, 3, 5, 5}, "row 4 has id 5"},
	} {
		c, reps := fixture()
		for i, id := range tc.ids {
			c.Companies[i].ID = id
		}
		if _, err := NewIndex(c, reps, Cosine); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ids %v: NewIndex error %v, want one containing %q", tc.ids, err, tc.want)
		}
		if _, err := c.Columns(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ids %v: Columns error %v, want one containing %q", tc.ids, err, tc.want)
		}
	}
}

func TestTopKFindsGroup(t *testing.T) {
	c, reps := fixture()
	ix, err := NewIndex(c, reps, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := ix.TopK(0, 2, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("matches = %d", len(matches))
	}
	for _, m := range matches {
		if m.CompanyID != 1 && m.CompanyID != 2 {
			t.Fatalf("company 0's neighbors should be 1 and 2, got %d", m.CompanyID)
		}
		if m.CompanyID == 0 {
			t.Fatal("query company in its own results")
		}
	}
	// sorted by similarity descending
	if matches[0].Similarity < matches[1].Similarity {
		t.Fatal("results not sorted")
	}
}

func TestTopKErrors(t *testing.T) {
	c, reps := fixture()
	ix, _ := NewIndex(c, reps, Cosine)
	if _, err := ix.TopK(99, 2, Filter{}); err == nil {
		t.Fatal("bad id accepted")
	}
	if _, err := ix.TopK(0, 0, Filter{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := ix.TopKByVectorContext(context.Background(), []float64{1}, 2, Filter{}); err == nil {
		t.Fatal("bad query dimension accepted")
	}
}

func TestFilters(t *testing.T) {
	c, reps := fixture()
	ix, _ := NewIndex(c, reps, Cosine)
	// country filter
	matches, err := ix.TopK(0, 5, Filter{Country: "DE"})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].CompanyID != 2 {
		t.Fatalf("country filter: %+v", matches)
	}
	// industry filter
	matches, _ = ix.TopK(0, 5, Filter{SIC2: 80})
	if len(matches) != 1 || matches[0].CompanyID != 1 {
		t.Fatalf("industry filter: %+v", matches)
	}
	// employee range
	matches, _ = ix.TopK(0, 5, Filter{MinEmployees: 1000})
	if len(matches) != 1 || matches[0].CompanyID != 1 {
		t.Fatalf("employee filter: %+v", matches)
	}
	matches, _ = ix.TopK(1, 5, Filter{MaxEmployees: 60})
	if len(matches) != 1 || matches[0].CompanyID != 2 {
		t.Fatalf("max-employee filter: %+v", matches)
	}
	// revenue range
	matches, _ = ix.TopK(0, 5, Filter{MinRevenueM: 25, MaxRevenueM: 35})
	if len(matches) != 1 || matches[0].CompanyID != 4 {
		t.Fatalf("revenue filter: %+v", matches)
	}
}

func TestTopKByVector(t *testing.T) {
	c, reps := fixture()
	ix, _ := NewIndex(c, reps, Cosine)
	matches, err := ix.TopKByVectorContext(context.Background(), []float64{0.05, 0.9, 0.05}, 1, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if matches[0].CompanyID != 3 {
		t.Fatalf("query vector should match SW-A exactly, got %d", matches[0].CompanyID)
	}
	if math.Abs(matches[0].Similarity-1) > 1e-9 {
		t.Fatalf("identical vector similarity = %v", matches[0].Similarity)
	}
}

func TestRecommendFromSimilar(t *testing.T) {
	c, reps := fixture()
	ix, _ := NewIndex(c, reps, Cosine)
	// Company 0 owns {0, 1}; peers 1 and 2 own {0, 2} and {1, 3}.
	// Gap products: 2 (from peer 1) and 3 (from peer 2).
	recs, err := ix.RecommendFromSimilar(0, 2, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recommendations = %+v", recs)
	}
	got := map[int]ProductRecommendation{}
	for _, r := range recs {
		got[r.Category] = r
		if r.Strength <= 0 || r.Strength > 1 {
			t.Fatalf("strength %v out of (0,1]", r.Strength)
		}
		if r.Name == "" {
			t.Fatal("missing product name")
		}
		if r.Owners != 1 {
			t.Fatalf("owners = %d", r.Owners)
		}
	}
	if _, ok := got[2]; !ok {
		t.Fatal("category 2 not recommended")
	}
	if _, ok := got[3]; !ok {
		t.Fatal("category 3 not recommended")
	}
	// owned categories never recommended
	if _, ok := got[0]; ok {
		t.Fatal("owned category recommended")
	}
	// peer 1 is more similar to 0 than peer 2, so category 2 ranks first
	if recs[0].Category != 2 {
		t.Fatalf("ranking wrong: %+v", recs)
	}
}

func TestWhitespace(t *testing.T) {
	c, reps := fixture()
	ix, _ := NewIndex(c, reps, Cosine)
	// clients = {0}: the best prospects should be the other HW companies.
	prospects, err := ix.Whitespace([]int{0}, 2, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prospects) != 2 {
		t.Fatalf("prospects = %d", len(prospects))
	}
	for _, p := range prospects {
		if p.CompanyID != 1 && p.CompanyID != 2 {
			t.Fatalf("prospect %d should be a HW company", p.CompanyID)
		}
		if p.NearestClient != 0 {
			t.Fatalf("nearest client = %d", p.NearestClient)
		}
	}
	// clients never appear as prospects
	all, _ := ix.Whitespace([]int{0, 3}, 10, Filter{})
	for _, p := range all {
		if p.CompanyID == 0 || p.CompanyID == 3 {
			t.Fatal("client listed as prospect")
		}
	}
	// errors
	if _, err := ix.Whitespace(nil, 2, Filter{}); err == nil {
		t.Fatal("empty client set accepted")
	}
	if _, err := ix.Whitespace([]int{99}, 2, Filter{}); err == nil {
		t.Fatal("bad client id accepted")
	}
	if _, err := ix.Whitespace([]int{0}, 0, Filter{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	// at most maxClients client ids, repeats included
	clients := make([]int, maxClients+1)
	if _, err := ix.Whitespace(clients[:maxClients], 2, Filter{}); err != nil {
		t.Fatalf("%d clients refused: %v", maxClients, err)
	}
	if _, err := ix.Whitespace(clients, 2, Filter{}); err == nil {
		t.Fatalf("%d clients accepted", len(clients))
	}
}

func TestFilterAdmitsZeroValues(t *testing.T) {
	c, _ := fixture()
	f := Filter{}
	for i := range c.Companies {
		if !f.Admits(&c.Companies[i]) {
			t.Fatal("empty filter must admit everything")
		}
	}
}

// TestQueryMetricsExposed runs each query path and checks the default
// registry's Prometheus exposition carries the serving-path series.
func TestQueryMetricsExposed(t *testing.T) {
	c, reps := fixture()
	ix, err := NewIndex(c, reps, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	req0 := obs.Default().Counter("topk_requests_total", "").Value()
	lat0 := obs.Default().Histogram("topk_latency_seconds", "", nil).Count()
	if _, err := ix.TopK(0, 3, Filter{Country: "US"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.RecommendFromSimilar(0, 3, Filter{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Whitespace([]int{0}, 3, Filter{}); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter("topk_requests_total", "").Value(); got <= req0 {
		t.Fatalf("topk_requests_total did not advance (%d -> %d)", req0, got)
	}
	if got := obs.Default().Histogram("topk_latency_seconds", "", nil).Count(); got <= lat0 {
		t.Fatalf("topk_latency_seconds count did not advance (%d -> %d)", lat0, got)
	}

	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, name := range []string{
		"# TYPE topk_latency_seconds histogram",
		"topk_latency_seconds_bucket{le=\"+Inf\"}",
		"# TYPE topk_requests_total counter",
		"topk_candidates_admitted_total",
		"topk_candidates_filtered_total",
		"# TYPE recommend_fanout_products histogram",
		"whitespace_latency_seconds_sum",
		"# TYPE index_companies gauge",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics exposition missing %q", name)
		}
	}
}

// TestMetricCountsServedVsErrors pins the served/error counter contract:
// every successfully served query increments its *_requests_total exactly
// once — including queries whose answer is empty — and every failed query
// increments only its *_errors_total.
func TestMetricCountsServedVsErrors(t *testing.T) {
	c, reps := fixture()
	ix, err := NewIndex(c, reps, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.Default()
	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }
	histCount := func(name string) uint64 { return reg.Histogram(name, "", nil).Count() }

	// Recommendation with a filter admitting no peers is still a served
	// request: one recommend_requests_total tick and one fan-out
	// observation (of 0), no error tick.
	rec0, recErr0, fan0 := counter("recommend_requests_total"), counter("recommend_errors_total"), histCount("recommend_fanout_products")
	out, err := ix.RecommendFromSimilar(0, 3, Filter{Country: "XX"})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty-peer recommendation: out=%v err=%v", out, err)
	}
	if got := counter("recommend_requests_total"); got != rec0+1 {
		t.Fatalf("recommend_requests_total %d, want %d (empty answers are served requests)", got, rec0+1)
	}
	if got := histCount("recommend_fanout_products"); got != fan0+1 {
		t.Fatalf("recommend_fanout_products count %d, want %d", got, fan0+1)
	}
	if got := counter("recommend_errors_total"); got != recErr0 {
		t.Fatalf("recommend_errors_total moved on a served request (%d -> %d)", recErr0, got)
	}

	// Peers whose similarities are all exactly 0 (orthogonal vectors) also
	// yield a served, empty recommendation.
	oc := corpus.New(corpus.DefaultCatalog(), []corpus.Company{
		{ID: 0, Acquisitions: []corpus.Acquisition{{Category: 0, First: 0}}},
		{ID: 1, Acquisitions: []corpus.Acquisition{{Category: 1, First: 0}}},
	})
	oreps := mat.FromSlice(2, 2, []float64{1, 0, 0, 1})
	oix, err := NewIndex(oc, oreps, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	rec0 = counter("recommend_requests_total")
	if out, err = oix.RecommendFromSimilar(0, 1, Filter{}); err != nil || len(out) != 0 {
		t.Fatalf("zero-similarity recommendation: out=%v err=%v", out, err)
	}
	if got := counter("recommend_requests_total"); got != rec0+1 {
		t.Fatalf("zero-similarity query not counted as served (%d, want %d)", got, rec0+1)
	}

	// Recommendation for an invalid id fails: error tick only (plus the
	// underlying top-k error tick).
	rec0, recErr0 = counter("recommend_requests_total"), counter("recommend_errors_total")
	if _, err = ix.RecommendFromSimilar(-1, 3, Filter{}); err == nil {
		t.Fatal("invalid id accepted")
	}
	if got := counter("recommend_requests_total"); got != rec0 {
		t.Fatalf("failed recommendation counted as served (%d -> %d)", rec0, got)
	}
	if got := counter("recommend_errors_total"); got != recErr0+1 {
		t.Fatalf("recommend_errors_total %d, want %d", got, recErr0+1)
	}

	// Whitespace with an out-of-range client id fails before serving: no
	// request tick, no latency observation, one error tick.
	ws0, wsErr0, lat0 := counter("whitespace_requests_total"), counter("whitespace_errors_total"), histCount("whitespace_latency_seconds")
	if _, err = ix.Whitespace([]int{999}, 3, Filter{}); err == nil {
		t.Fatal("out-of-range client id accepted")
	}
	if _, err = ix.Whitespace(nil, 3, Filter{}); err == nil {
		t.Fatal("empty client set accepted")
	}
	if _, err = ix.Whitespace([]int{0}, 0, Filter{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err = ix.Whitespace(make([]int, maxClients+1), 3, Filter{}); err == nil {
		t.Fatal("too many client ids accepted")
	}
	if got := counter("whitespace_requests_total"); got != ws0 {
		t.Fatalf("failed whitespace queries counted as served (%d -> %d)", ws0, got)
	}
	if got := histCount("whitespace_latency_seconds"); got != lat0 {
		t.Fatalf("failed whitespace queries observed latency (%d -> %d)", lat0, got)
	}
	if got := counter("whitespace_errors_total"); got != wsErr0+4 {
		t.Fatalf("whitespace_errors_total %d, want %d", got, wsErr0+4)
	}

	// A served whitespace query ticks requests and latency exactly once.
	ws0, lat0 = counter("whitespace_requests_total"), histCount("whitespace_latency_seconds")
	if _, err = ix.Whitespace([]int{0}, 3, Filter{}); err != nil {
		t.Fatal(err)
	}
	if got := counter("whitespace_requests_total"); got != ws0+1 {
		t.Fatalf("whitespace_requests_total %d, want %d", got, ws0+1)
	}
	if got := histCount("whitespace_latency_seconds"); got != lat0+1 {
		t.Fatalf("whitespace_latency_seconds count %d, want %d", got, lat0+1)
	}

	// Top-k argument failures tick topk_errors_total, never requests.
	tk0, tkErr0 := counter("topk_requests_total"), counter("topk_errors_total")
	if _, err = ix.TopK(99, 3, Filter{}); err == nil {
		t.Fatal("invalid id accepted")
	}
	if _, err = ix.TopK(0, 0, Filter{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err = ix.TopKByVectorContext(context.Background(), []float64{1}, 3, Filter{}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if got := counter("topk_requests_total"); got != tk0 {
		t.Fatalf("failed top-k queries counted as served (%d -> %d)", tk0, got)
	}
	if got := counter("topk_errors_total"); got != tkErr0+3 {
		t.Fatalf("topk_errors_total %d, want %d", got, tkErr0+3)
	}
}

// TestContextCancellationCountsAsError checks the Context query variants
// surface ctx.Err() and count the query as an error, not a served request.
func TestContextCancellationCountsAsError(t *testing.T) {
	c, reps := fixture()
	ix, err := NewIndex(c, reps, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := obs.Default()
	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }

	tk0, tkErr0 := counter("topk_requests_total"), counter("topk_errors_total")
	if _, err := ix.TopKContext(ctx, 0, 3, Filter{}); err == nil {
		t.Fatal("cancelled top-k succeeded")
	}
	if got := counter("topk_requests_total"); got != tk0 {
		t.Fatalf("cancelled top-k counted as served (%d -> %d)", tk0, got)
	}
	if got := counter("topk_errors_total"); got != tkErr0+1 {
		t.Fatalf("topk_errors_total %d, want %d", got, tkErr0+1)
	}

	ws0, wsErr0 := counter("whitespace_requests_total"), counter("whitespace_errors_total")
	if _, err := ix.WhitespaceContext(ctx, []int{0}, 3, Filter{}); err == nil {
		t.Fatal("cancelled whitespace succeeded")
	}
	if got := counter("whitespace_requests_total"); got != ws0 {
		t.Fatalf("cancelled whitespace counted as served (%d -> %d)", ws0, got)
	}
	if got := counter("whitespace_errors_total"); got != wsErr0+1 {
		t.Fatalf("whitespace_errors_total %d, want %d", got, wsErr0+1)
	}

	recErr0 := counter("recommend_errors_total")
	if _, err := ix.RecommendFromSimilarContext(ctx, 0, 3, Filter{}); err == nil {
		t.Fatal("cancelled recommendation succeeded")
	}
	if got := counter("recommend_errors_total"); got != recErr0+1 {
		t.Fatalf("recommend_errors_total %d, want %d", got, recErr0+1)
	}
}
