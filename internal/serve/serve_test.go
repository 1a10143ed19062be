package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lda"
	"repro/internal/obs"
	"repro/internal/rng"
)

// testCorpus builds a deterministic 40-company corpus with attribute
// variety for the filters.
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
				{Category: (i*9 + 4) % m, First: corpus.Month(i%12 + 2)},
			},
		}
		companies[i].SortAcquisitions()
	}
	return corpus.New(cat, companies)
}

// newTestServer trains a tiny LDA model over the fixture corpus and stands
// up a Server over the resulting index.
func newTestServer(t *testing.T, cfg Config) (*Server, *core.Index, *lda.Model) {
	t.Helper()
	c := testCorpus()
	m, err := lda.TrainContext(context.Background(),
		lda.Config{Topics: 2, V: c.M(), BurnIn: 10, Iterations: 20, SampleLag: 5},
		c.Sets(), nil, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	reps := m.Representations(c.Sets(), rng.New(7))
	ix, err := core.NewIndex(c, reps, core.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Loaded{Index: ix, Model: m}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, ix, m
}

func counterValue(name string) uint64 { return obs.Default().Counter(name, "").Value() }

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", path, err, body)
		}
	}
	return resp
}

func postJSON(t *testing.T, ts *httptest.Server, path string, req, out any) *http.Response {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", path, err, body)
		}
	}
	return resp
}

func TestSimilarEndpointMatchesDirectQuery(t *testing.T) {
	s, ix, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want, err := ix.TopK(4, 5, core.Filter{Country: "US"})
	if err != nil {
		t.Fatal(err)
	}
	served0 := counterValue("serve_similar_requests_total")
	var got api.SimilarResponse
	resp := getJSON(t, ts, "/v1/similar/4?k=5&country=US", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.CompanyID != 4 || got.K != 5 || len(got.Matches) != len(want) {
		t.Fatalf("response shape: %+v (want %d matches)", got, len(want))
	}
	for i, m := range want {
		if got.Matches[i].CompanyID != m.CompanyID || got.Matches[i].Similarity != m.Similarity {
			t.Fatalf("match %d: got %+v, want %+v", i, got.Matches[i], m)
		}
		if c := ix.Corpus.Companies[m.CompanyID]; got.Matches[i].Name != c.Name {
			t.Fatalf("match %d name %q, want %q", i, got.Matches[i].Name, c.Name)
		}
	}
	if got := counterValue("serve_similar_requests_total"); got != served0+1 {
		t.Fatalf("serve_similar_requests_total %d, want %d", got, served0+1)
	}
}

func TestRecommendEndpointMatchesDirectQuery(t *testing.T) {
	s, ix, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want, err := ix.RecommendFromSimilar(2, 8, core.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	var got api.RecommendResponse
	if resp := getJSON(t, ts, "/v1/recommend/2?peers=8", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Peers != 8 || len(got.Recommendations) != len(want) {
		t.Fatalf("got %d recommendations for peers=%d, want %d", len(got.Recommendations), got.Peers, len(want))
	}
	for i, r := range want {
		g := got.Recommendations[i]
		if g.Category != r.Category || g.Strength != r.Strength || g.Owners != r.Owners || g.Name != r.Name {
			t.Fatalf("recommendation %d: got %+v, want %+v", i, g, r)
		}
	}

	// A filter admitting no peers still serves a 200 with an empty list.
	served0, errs0 := counterValue("serve_recommend_requests_total"), counterValue("serve_recommend_errors_total")
	var empty api.RecommendResponse
	if resp := getJSON(t, ts, "/v1/recommend/2?country=XX", &empty); resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-answer status %d", resp.StatusCode)
	}
	if len(empty.Recommendations) != 0 {
		t.Fatalf("expected no recommendations, got %d", len(empty.Recommendations))
	}
	if got := counterValue("serve_recommend_requests_total"); got != served0+1 {
		t.Fatalf("empty answer not counted as served (%d, want %d)", got, served0+1)
	}
	if got := counterValue("serve_recommend_errors_total"); got != errs0 {
		t.Fatalf("empty answer counted as error (%d -> %d)", errs0, got)
	}
}

func TestWhitespaceEndpointMatchesDirectQuery(t *testing.T) {
	s, ix, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	clients := []int{0, 3, 9}
	want, err := ix.Whitespace(clients, 6, core.Filter{Country: "DE"})
	if err != nil {
		t.Fatal(err)
	}
	var got api.WhitespaceResponse
	req := api.WhitespaceRequest{Clients: clients, K: 6, Filter: api.Filter{Country: "DE"}}
	if resp := postJSON(t, ts, "/v1/whitespace", req, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Prospects) != len(want) {
		t.Fatalf("got %d prospects, want %d", len(got.Prospects), len(want))
	}
	for i, p := range want {
		g := got.Prospects[i]
		if g.CompanyID != p.CompanyID || g.NearestClient != p.NearestClient || g.Similarity != p.Similarity {
			t.Fatalf("prospect %d: got %+v, want %+v", i, g, p)
		}
	}
}

func TestInferEndpoint(t *testing.T) {
	s, ix, m := newTestServer(t, Config{Seed: 11})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	owned := []int{0, 5, 9}
	var got api.InferResponse
	req := api.InferRequest{Owned: owned, K: 4}
	if resp := postJSON(t, ts, "/v1/infer", req, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Theta) != m.K {
		t.Fatalf("theta has %d entries, want %d topics", len(got.Theta), m.K)
	}
	if len(got.Matches) != 4 {
		t.Fatalf("got %d matches, want 4", len(got.Matches))
	}
	// The response must equal a direct fold-in with the same seed.
	theta := m.InferTheta(owned, rng.New(11))
	want, err := ix.TopKByVector(theta, 4, core.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got.Matches[i].CompanyID != w.CompanyID || got.Matches[i].Similarity != w.Similarity {
			t.Fatalf("match %d: got %+v, want %+v", i, got.Matches[i], w)
		}
	}
	// Identical requests are deterministic.
	var again api.InferResponse
	postJSON(t, ts, "/v1/infer", req, &again)
	if fmt.Sprint(again) != fmt.Sprint(got) {
		t.Fatal("identical infer requests returned different responses")
	}

	// Out-of-vocabulary category is a 400.
	errs0 := counterValue("serve_infer_errors_total")
	if resp := postJSON(t, ts, "/v1/infer", api.InferRequest{Owned: []int{m.V}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range category: status %d, want 400", resp.StatusCode)
	}
	if got := counterValue("serve_infer_errors_total"); got != errs0+1 {
		t.Fatalf("serve_infer_errors_total %d, want %d", got, errs0+1)
	}
}

func TestBadRequestsCountErrorsNotServed(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	served0, errs0 := counterValue("serve_similar_requests_total"), counterValue("serve_similar_errors_total")
	cases := []string{
		"/v1/similar/notanumber",
		"/v1/similar/9999",
		"/v1/similar/0?k=bogus",
		"/v1/similar/0?min_employees=many",
		"/v1/similar/0?min_revenue_m=lots",
	}
	for _, path := range cases {
		if resp := getJSON(t, ts, path, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
	if got := counterValue("serve_similar_requests_total"); got != served0 {
		t.Fatalf("failed queries counted as served (%d -> %d)", served0, got)
	}
	if got := counterValue("serve_similar_errors_total"); got != errs0+uint64(len(cases)) {
		t.Fatalf("serve_similar_errors_total %d, want %d", got, errs0+uint64(len(cases)))
	}

	wsErrs0 := counterValue("serve_whitespace_errors_total")
	resp, err := ts.Client().Post(ts.URL+"/v1/whitespace", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if resp = postJSON(t, ts, "/v1/whitespace", api.WhitespaceRequest{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty client set: status %d, want 400", resp.StatusCode)
	}
	if got := counterValue("serve_whitespace_errors_total"); got != wsErrs0+2 {
		t.Fatalf("serve_whitespace_errors_total %d, want %d", got, wsErrs0+2)
	}
}

func TestHealthz(t *testing.T) {
	s, ix, m := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var got healthResponse
	if resp := getJSON(t, ts, "/healthz", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Status != "ok" || got.Companies != ix.Corpus.N() || got.Topics != m.K || got.Dim != ix.Reps.Cols {
		t.Fatalf("health response %+v", got)
	}
}

func TestCacheHitsAndReloadInvalidation(t *testing.T) {
	var logged bytes.Buffer
	s, ix, m := newTestServer(t, Config{CacheSize: 16, Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	// Install a loader that rebuilds a fresh state over the same data.
	reloaded := 0
	s.load = func(context.Context) (Loaded, error) {
		reloaded++
		return Loaded{Index: ix, Model: m, BuildLog: []any{"corpus_load_ms", 12.5}}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hits0, misses0 := counterValue("serve_cache_hits_total"), counterValue("serve_cache_misses_total")
	var first, second api.SimilarResponse
	getJSON(t, ts, "/v1/similar/7?k=3", &first)
	getJSON(t, ts, "/v1/similar/7?k=3", &second)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatal("cached response differs from computed response")
	}
	if got := counterValue("serve_cache_hits_total"); got != hits0+1 {
		t.Fatalf("serve_cache_hits_total %d, want %d", got, hits0+1)
	}
	if got := counterValue("serve_cache_misses_total"); got != misses0+1 {
		t.Fatalf("serve_cache_misses_total %d, want %d", got, misses0+1)
	}
	// Different k or filter is a different key.
	getJSON(t, ts, "/v1/similar/7?k=4", nil)
	if got := counterValue("serve_cache_misses_total"); got != misses0+2 {
		t.Fatalf("distinct query served from cache (misses %d, want %d)", got, misses0+2)
	}

	// Reload swaps the state and empties the cache: the same query misses.
	reloads0 := counterValue("serve_reloads_total")
	var rl reloadResponse
	if resp := postJSON(t, ts, "/admin/reload", struct{}{}, &rl); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	if reloaded != 1 || !rl.Reloaded || rl.Companies != ix.Corpus.N() || rl.Invalidated != 2 {
		t.Fatalf("reload response %+v (loader calls: %d)", rl, reloaded)
	}
	if got := counterValue("serve_reloads_total"); got != reloads0+1 {
		t.Fatalf("serve_reloads_total %d, want %d", got, reloads0+1)
	}
	if line := logged.String(); !strings.Contains(line, `msg="model reloaded"`) || !strings.Contains(line, "corpus_load_ms=12.5") {
		t.Fatalf("reload log line lacks the loader's BuildLog pairs: %q", line)
	}
	var third api.SimilarResponse
	getJSON(t, ts, "/v1/similar/7?k=3", &third)
	if got := counterValue("serve_cache_misses_total"); got != misses0+3 {
		t.Fatalf("post-reload query hit a stale cache (misses %d, want %d)", got, misses0+3)
	}
	if fmt.Sprint(third) != fmt.Sprint(first) {
		t.Fatal("identical data after reload changed the answer")
	}
}

func TestReloadWithoutLoaderIs501(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp := postJSON(t, ts, "/admin/reload", struct{}{}, nil); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without loader: status %d, want 501", resp.StatusCode)
	}
}

func TestSaturationReturns503(t *testing.T) {
	s, _, _ := newTestServer(t, Config{MaxConcurrent: 1, Timeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single semaphore slot so every query waits out its
	// deadline and fails fast.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	throttled0 := counterValue("serve_throttled_total")
	if resp := getJSON(t, ts, "/v1/similar/0", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server: status %d, want 503", resp.StatusCode)
	}
	if got := counterValue("serve_throttled_total"); got != throttled0+1 {
		t.Fatalf("serve_throttled_total %d, want %d", got, throttled0+1)
	}
}

// TestConcurrentRequestsWithReloads hammers the server from many goroutines
// while reloads swap the state, asserting every response is well-formed —
// the atomic-pointer generation scheme must never surface a torn state.
func TestConcurrentRequestsWithReloads(t *testing.T) {
	s, ix, m := newTestServer(t, Config{CacheSize: 8})
	s.load = func(context.Context) (Loaded, error) { return Loaded{Index: ix, Model: m}, nil }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var out api.SimilarResponse
				path := fmt.Sprintf("/v1/similar/%d?k=3", (g*20+i)%40)
				resp, err := ts.Client().Get(ts.URL + path)
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
				if err := json.Unmarshal(body, &out); err != nil {
					errs <- fmt.Errorf("%s: %v", path, err)
					return
				}
				if len(out.Matches) != 3 {
					errs <- fmt.Errorf("%s: %d matches", path, len(out.Matches))
					return
				}
			}
		}(g)
	}
	// /healthz reads index state too (partition walk, ANN info) and must
	// hold a generation reference like the query paths — hammer it through
	// the same reload storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			resp, err := ts.Client().Get(ts.URL + "/healthz")
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("healthz %d: status %d", i, resp.StatusCode)
				return
			}
			var h healthResponse
			if err := json.Unmarshal(body, &h); err != nil {
				errs <- fmt.Errorf("healthz %d: %v\n%s", i, err, body)
				return
			}
			if h.Status != "ok" {
				errs <- fmt.Errorf("healthz %d: %+v", i, h)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			resp, err := ts.Client().Post(ts.URL+"/admin/reload", "application/json", nil)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("reload %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
