package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
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
func newTestServer(t testing.TB, cfg Config) (*Server, *core.Index, *lda.Model) {
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

// getJSON and postJSON send one request to h and decode a 200 answer into
// out when out is non-nil.
func getJSON(t *testing.T, h http.Handler, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	return decoded(t, fetch(h, http.MethodGet, path, ""), out)
}

func postJSON(t *testing.T, h http.Handler, path string, req, out any) *httptest.ResponseRecorder {
	t.Helper()
	return decoded(t, fetch(h, http.MethodPost, path, string(must(json.Marshal(req)))), out)
}

func decoded(t *testing.T, w *httptest.ResponseRecorder, out any) *httptest.ResponseRecorder {
	t.Helper()
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %v\n%s", err, w.Body)
		}
	}
	return w
}

// TestSimilarEndpointMatchesDirectQuery, TestRecommendEndpointMatchesDirectQuery
// and TestWhitespaceEndpointMatchesDirectQuery run the serving oracle, whose
// reference answers are checked against direct core calls: ids, names and
// bit-exact scores, empty answers served as 200s, and exactly one of the
// endpoint's requests and errors counters ticked per request.
func TestSimilarEndpointMatchesDirectQuery(t *testing.T) { serveOracle(t, 1001, 1, nil) }

func TestRecommendEndpointMatchesDirectQuery(t *testing.T) { serveOracle(t, 1101, 1, nil) }

func TestWhitespaceEndpointMatchesDirectQuery(t *testing.T) { serveOracle(t, 1201, 1, nil) }

func TestInferEndpoint(t *testing.T) {
	s, ix, m := newTestServer(t, Config{Seed: 11})
	h := s.Handler()

	owned := []int{0, 5, 9}
	var got api.InferResponse
	req := api.InferRequest{Owned: owned, K: 4}
	if resp := postJSON(t, h, "/v1/infer", req, &got); resp.Code != http.StatusOK {
		t.Fatalf("status %d", resp.Code)
	}
	if len(got.Theta) != m.K {
		t.Fatalf("theta has %d entries, want %d topics", len(got.Theta), m.K)
	}
	if len(got.Matches) != 4 {
		t.Fatalf("got %d matches, want 4", len(got.Matches))
	}
	// The response must equal a direct fold-in with the same seed.
	theta := m.InferTheta(owned, rng.New(11))
	want, err := ix.TopKByVectorContext(context.Background(), theta, 4, core.Filter{})
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
	postJSON(t, h, "/v1/infer", req, &again)
	if fmt.Sprint(again) != fmt.Sprint(got) {
		t.Fatal("identical infer requests returned different responses")
	}

	// Out-of-vocabulary category is a 400.
	errs0 := counterValue("serve_infer_errors_total")
	if resp := postJSON(t, h, "/v1/infer", api.InferRequest{Owned: []int{m.V}}, nil); resp.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range category: status %d, want 400", resp.Code)
	}
	if got := counterValue("serve_infer_errors_total"); got != errs0+1 {
		t.Fatalf("serve_infer_errors_total %d, want %d", got, errs0+1)
	}
}

func TestBadRequestsCountErrorsNotServed(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	h := s.Handler()

	served0, errs0 := counterValue("serve_similar_requests_total"), counterValue("serve_similar_errors_total")
	cases := []string{
		"/v1/similar/notanumber",
		"/v1/similar/9999",
		"/v1/similar/0?k=bogus",
		"/v1/similar/0?min_employees=many",
		"/v1/similar/0?min_revenue_m=lots",
	}
	for _, path := range cases {
		if resp := getJSON(t, h, path, nil); resp.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.Code)
		}
	}
	if got := counterValue("serve_similar_requests_total"); got != served0 {
		t.Fatalf("failed queries counted as served (%d -> %d)", served0, got)
	}
	if got := counterValue("serve_similar_errors_total"); got != errs0+uint64(len(cases)) {
		t.Fatalf("serve_similar_errors_total %d, want %d", got, errs0+uint64(len(cases)))
	}

	wsErrs0 := counterValue("serve_whitespace_errors_total")
	resp := fetch(h, http.MethodPost, "/v1/whitespace", "{not json")
	if resp.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.Code)
	}
	if resp = postJSON(t, h, "/v1/whitespace", api.WhitespaceRequest{}, nil); resp.Code != http.StatusBadRequest {
		t.Fatalf("empty client set: status %d, want 400", resp.Code)
	}
	// core bounds a white-space query at 1,024 client ids, repeats included.
	clients := make([]int, 1025)
	for i := range clients {
		clients[i] = i % 40
	}
	if resp = postJSON(t, h, "/v1/whitespace", api.WhitespaceRequest{Clients: clients[:1024], K: 3}, nil); resp.Code != http.StatusOK {
		t.Fatalf("1,024 clients: status %d, want 200", resp.Code)
	}
	if resp = postJSON(t, h, "/v1/whitespace", api.WhitespaceRequest{Clients: clients, K: 3}, nil); resp.Code != http.StatusBadRequest {
		t.Fatalf("1,025 clients: status %d, want 400", resp.Code)
	}
	if got := counterValue("serve_whitespace_errors_total"); got != wsErrs0+3 {
		t.Fatalf("serve_whitespace_errors_total %d, want %d", got, wsErrs0+3)
	}
}

// TestRevenueBoundsMustBeFinite pins floatParam's refusal of non-finite
// revenue bounds: NaN compares false with every revenue, so before the check
// min_revenue_m=NaN switched the bound off and answered 200 with unfiltered
// matches; an infinite bound is no bound either. Finite spellings, hex and
// exponent forms included, still parse.
func TestRevenueBoundsMustBeFinite(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	h := s.Handler()
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"min_revenue_m=NaN", http.StatusBadRequest},
		{"max_revenue_m=NaN", http.StatusBadRequest},
		{"min_revenue_m=nan", http.StatusBadRequest},
		{"max_revenue_m=-NaN", http.StatusBadRequest},
		{"min_revenue_m=Inf", http.StatusBadRequest},
		{"max_revenue_m=%2BInf", http.StatusBadRequest},
		{"min_revenue_m=-Inf", http.StatusBadRequest},
		{"max_revenue_m=infinity", http.StatusBadRequest},
		{"min_revenue_m=1e400", http.StatusBadRequest}, // ParseFloat's range error
		{"min_revenue_m=10&max_revenue_m=NaN", http.StatusBadRequest},
		{"min_revenue_m=0", http.StatusOK},
		{"max_revenue_m=1e300", http.StatusOK},
		{"min_revenue_m=0x1p-2&max_revenue_m=5e3", http.StatusOK},
	} {
		for _, ep := range []string{"/v1/similar/0", "/v1/recommend/0"} {
			path := ep + "?" + tc.query
			if resp := getJSON(t, h, path, nil); resp.Code != tc.want {
				t.Errorf("%s: status %d, want %d", path, resp.Code, tc.want)
			}
		}
	}
}

func TestHealthz(t *testing.T) {
	s, ix, m := newTestServer(t, Config{})
	h := s.Handler()
	var got healthResponse
	if resp := getJSON(t, h, "/healthz", &got); resp.Code != http.StatusOK {
		t.Fatalf("status %d", resp.Code)
	}
	if got.Status != "ok" || got.Companies != ix.N() || got.Topics != m.K || got.Dim != ix.Reps.Cols {
		t.Fatalf("health response %+v", got)
	}
}

// TestReloadSwapsGeneration pins a reload over the same data: the
// loader runs once, the response and the log line say so, and the same query
// answers the same after the swap.
func TestReloadSwapsGeneration(t *testing.T) {
	var logged bytes.Buffer
	s, ix, m := newTestServer(t, Config{Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	// Install a loader that rebuilds a fresh state over the same data.
	reloaded := 0
	s.load = func(context.Context) (Loaded, error) {
		reloaded++
		return Loaded{Index: ix, Model: m, BuildLog: []any{"corpus_load_ms", 12.5}}, nil
	}
	h := s.Handler()

	var first api.SimilarResponse
	getJSON(t, h, "/v1/similar/7?k=3", &first)
	reloads0 := counterValue("serve_reload_requests_total")
	var rl reloadResponse
	if resp := postJSON(t, h, "/admin/reload", struct{}{}, &rl); resp.Code != http.StatusOK {
		t.Fatalf("reload status %d", resp.Code)
	}
	if reloaded != 1 || !rl.Reloaded || rl.Companies != ix.N() {
		t.Fatalf("reload response %+v (loader calls: %d)", rl, reloaded)
	}
	if got := counterValue("serve_reload_requests_total"); got != reloads0+1 {
		t.Fatalf("serve_reload_requests_total %d, want %d", got, reloads0+1)
	}
	if line := logged.String(); !strings.Contains(line, `msg="model reloaded"`) || !strings.Contains(line, "corpus_load_ms=12.5") {
		t.Fatalf("reload log line lacks the loader's BuildLog pairs: %q", line)
	}
	var second api.SimilarResponse
	getJSON(t, h, "/v1/similar/7?k=3", &second)
	if fmt.Sprint(second) != fmt.Sprint(first) {
		t.Fatal("identical data after reload changed the answer")
	}
}

func TestReloadWithoutLoaderIs501(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	h := s.Handler()
	if resp := postJSON(t, h, "/admin/reload", struct{}{}, nil); resp.Code != http.StatusNotImplemented {
		t.Fatalf("reload without loader: status %d, want 501", resp.Code)
	}
}

func TestSaturationReturns503(t *testing.T) {
	s, _, _ := newTestServer(t, Config{MaxConcurrent: 1, Timeout: 50 * time.Millisecond})
	h := s.Handler()

	// Occupy the single semaphore slot so every query waits out its
	// deadline and fails fast.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	throttled0 := counterValue("serve_throttled_total")
	if resp := getJSON(t, h, "/v1/similar/0", nil); resp.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated server: status %d, want 503", resp.Code)
	}
	if got := counterValue("serve_throttled_total"); got != throttled0+1 {
		t.Fatalf("serve_throttled_total %d, want %d", got, throttled0+1)
	}
}

// TestConcurrentRequestsWithReloads hammers the server from many goroutines
// while reloads swap the state, asserting every response is well-formed —
// the atomic-pointer generation scheme must never surface a torn state.
func TestConcurrentRequestsWithReloads(t *testing.T) {
	s, ix, m := newTestServer(t, Config{})
	s.load = func(context.Context) (Loaded, error) { return Loaded{Index: ix, Model: m}, nil }
	h := s.Handler()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var out api.SimilarResponse
				path := fmt.Sprintf("/v1/similar/%d?k=3", (g*20+i)%40)
				w := fetch(h, http.MethodGet, path, "")
				if err := json.Unmarshal(w.Body.Bytes(), &out); w.Code != http.StatusOK || err != nil {
					errs <- fmt.Errorf("%s: %d %v", path, w.Code, err)
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
			w := fetch(h, http.MethodGet, "/healthz", "")
			var hz healthResponse
			if err := json.Unmarshal(w.Body.Bytes(), &hz); w.Code != http.StatusOK || err != nil {
				errs <- fmt.Errorf("healthz %d: %d %v\n%s", i, w.Code, err, w.Body)
				return
			}
			if hz.Status != "ok" {
				errs <- fmt.Errorf("healthz %d: %+v", i, hz)
				return
			}
		}
	}()
	// Two reloaders race each other: reloads serialise, so all ten swap.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if w := fetch(h, http.MethodPost, "/admin/reload", ""); w.Code != http.StatusOK {
					errs <- fmt.Errorf("reloader %d, reload %d: status %d", r, i, w.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if gen := s.cur.Load().gen; gen != 11 {
		t.Errorf("generation %d after 10 reloads, want 11", gen)
	}
}

// TestNewRejectsNegativeConfig pins New's refusal of settings no default
// stands for: a negative MaxConcurrent used to panic in make(chan) at boot,
// a negative k, peer count or timeout failed every request that relied on
// the default, and a reload guard above 1 refused every reload while a
// negative or NaN one silently disabled the guard.
func TestNewRejectsNegativeConfig(t *testing.T) {
	_, ix, m := newTestServer(t, Config{Quiet: true})
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"max-concurrent", Config{MaxConcurrent: -1}},
		{"k", Config{DefaultK: -1}},
		{"peers", Config{DefaultPeers: -1}},
		{"timeout", Config{Timeout: -time.Second}},
		{"reload-guard-negative", Config{ReloadGuard: -0.1}},
		{"reload-guard-above-one", Config{ReloadGuard: 1.5}},
		{"reload-guard-nan", Config{ReloadGuard: math.NaN()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if s, err := New(Loaded{Index: ix, Model: m}, nil, tc.cfg); err == nil {
				s.Close()
				t.Fatalf("New accepted %+v", tc.cfg)
			}
		})
	}
}
