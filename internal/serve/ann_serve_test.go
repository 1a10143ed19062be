package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/ann"
	"repro/internal/core"
)

// TestNegativeKAndPeersRejected covers the signed-parameter edge on every
// query surface: a negative k or peer count — in the query string or a JSON
// body, where it bypasses the unsigned-looking defaults — must 400 through
// statusFor via core's argument validation and count only toward the
// endpoint's serve_*_errors_total, never toward served requests.
func TestNegativeKAndPeersRejected(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		endpoint string // counter family
		method   string
		path     string
		body     string
	}{
		{"similar", http.MethodGet, "/v1/similar/0?k=-1", ""},
		{"recommend", http.MethodGet, "/v1/recommend/0?peers=-3", ""},
		{"whitespace", http.MethodPost, "/v1/whitespace", `{"clients":[1,2],"k":-5}`},
		{"whitespace", http.MethodPost, "/v1/whitespace", `{"clients":[1,2],"k":-1,"filter":{"country":"US"}}`},
		{"infer", http.MethodPost, "/v1/infer", `{"owned":[1,2],"k":-2}`},
		{"infer", http.MethodPost, "/v1/infer", `{"owned":[3],"k":-9999}`},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s_%s", tc.endpoint, tc.path), func(t *testing.T) {
			served0 := counterValue("serve_" + tc.endpoint + "_requests_total")
			errs0 := counterValue("serve_" + tc.endpoint + "_errors_total")
			var resp *http.Response
			var err error
			if tc.method == http.MethodGet {
				resp, err = ts.Client().Get(ts.URL + tc.path)
			} else {
				resp, err = ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400\n%s", resp.StatusCode, body)
			}
			if got := counterValue("serve_" + tc.endpoint + "_requests_total"); got != served0 {
				t.Errorf("negative argument counted as served (%d -> %d)", served0, got)
			}
			if got := counterValue("serve_" + tc.endpoint + "_errors_total"); got != errs0+1 {
				t.Errorf("serve_%s_errors_total %d, want %d", tc.endpoint, got, errs0+1)
			}
		})
	}
}

// annRouter builds a coarse router over the server's index representations.
func annRouter(t *testing.T, ix *core.Index, cells, nprobe int) *ann.Router {
	t.Helper()
	annIx, err := ann.Build(ix.Reps, core.Cosine, ann.BuildConfig{Cells: cells, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	return &ann.Router{Index: annIx, NProbe: nprobe}
}

// TestHealthzANNBlock checks /healthz reports the routing index exactly
// when one is installed.
func TestHealthzANNBlock(t *testing.T) {
	s, ix, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var h healthResponse
	getJSON(t, ts, "/healthz", &h)
	if h.ANN != nil {
		t.Fatalf("exact-scan server advertises an ANN block: %+v", h.ANN)
	}
	ix.SetPruner(annRouter(t, ix, 5, 2))
	h = healthResponse{}
	getJSON(t, ts, "/healthz", &h)
	if h.ANN == nil {
		t.Fatal("ANN-routed server omits the healthz ann block")
	}
	if h.ANN.Cells != 5 || h.ANN.NProbe != 2 || h.ANN.Mapped {
		t.Fatalf("ann block = %+v, want cells=5 nprobe=2 mapped=false", h.ANN)
	}
}

// TestServeANNFullProbeByteIdentical pins the serving-level escape hatch:
// with the router probing every cell, all five query endpoints return
// byte-for-byte the responses of the exact-scan server over the same
// corpus, model and cache configuration.
func TestServeANNFullProbeByteIdentical(t *testing.T) {
	exact, ix, m := newTestServer(t, Config{})
	ix2, err := core.NewIndex(ix.Corpus, ix.Reps, core.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	ix2.SetPruner(annRouter(t, ix2, 6, 6))
	pruned, err := New(Loaded{Index: ix2, Model: m}, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tsExact := httptest.NewServer(exact.Handler())
	defer tsExact.Close()
	tsPruned := httptest.NewServer(pruned.Handler())
	defer tsPruned.Close()

	requests := []struct {
		method, path, body string
	}{
		{http.MethodGet, "/v1/similar/0?k=7", ""},
		{http.MethodGet, "/v1/similar/11?k=5&country=US&min_employees=60", ""},
		{http.MethodGet, "/v1/recommend/3?peers=8", ""},
		{http.MethodPost, "/v1/whitespace", `{"clients":[0,5,9],"k":6}`},
		{http.MethodPost, "/v1/infer", `{"owned":[1,4,7],"k":5}`},
		{http.MethodPost, "/internal/recommend", `{"company_id":2,"matches":[{"company_id":5,"similarity":0.8},{"company_id":9,"similarity":0.6}]}`},
	}
	fetch := func(ts *httptest.Server, method, path, body string) []byte {
		t.Helper()
		var resp *http.Response
		var err error
		if method == http.MethodGet {
			resp, err = ts.Client().Get(ts.URL + path)
		} else {
			resp, err = ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d\n%s", method, path, resp.StatusCode, b)
		}
		return b
	}
	for _, rq := range requests {
		want := fetch(tsExact, rq.method, rq.path, rq.body)
		got := fetch(tsPruned, rq.method, rq.path, rq.body)
		if !bytes.Equal(want, got) {
			t.Errorf("%s %s: full-probe ANN response differs from exact scan\nexact:  %s\npruned: %s",
				rq.method, rq.path, want, got)
		}
	}
}

// TestHealthzDuringReloads hammers /healthz concurrently with admin
// reloads: the handler holds a generation reference like the query paths,
// so no request may observe a torn generation (the pre-fix bare
// s.cur.Load() could race the last release of a retiring generation).
func TestHealthzDuringReloads(t *testing.T) {
	s, ix, m := newTestServer(t, Config{CacheSize: 8})
	s.load = func(ctx context.Context) (Loaded, error) { return Loaded{Index: ix, Model: m}, nil }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
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
				if h.Status != "ok" || h.Companies != ix.Corpus.N() {
					errs <- fmt.Errorf("healthz %d: torn response %+v", i, h)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
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
