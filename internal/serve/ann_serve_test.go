package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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
	h := s.Handler()

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
			if w := fetch(h, tc.method, tc.path, tc.body); w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400\n%s", w.Code, w.Body)
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
	h := s.Handler()

	var hz healthResponse
	getJSON(t, h, "/healthz", &hz)
	if hz.ANN != nil {
		t.Fatalf("exact-scan server advertises an ANN block: %+v", hz.ANN)
	}
	ix.SetPruner(annRouter(t, ix, 5, 2))
	hz = healthResponse{}
	getJSON(t, h, "/healthz", &hz)
	if hz.ANN == nil {
		t.Fatal("ANN-routed server omits the healthz ann block")
	}
	if hz.ANN.Cells != 5 || hz.ANN.NProbe != 2 || hz.ANN.Mapped {
		t.Fatalf("ann block = %+v, want cells=5 nprobe=2 mapped=false", hz.ANN)
	}
}

// TestServeANNFullProbeByteIdentical runs the serving oracle with a full-probe
// ANN pruner (every cell probed) on every index of every round, in process.
func TestServeANNFullProbeByteIdentical(t *testing.T) {
	serveOracle(t, 3001, 1, func(v *variant) { v.ann, v.binary = 1, 0 })
}

// TestHealthzDuringReloads hammers /healthz concurrently with admin
// reloads: the handler holds a generation reference like the query paths,
// so no request may observe a torn generation (the pre-fix bare
// s.cur.Load() could race the last release of a retiring generation).
func TestHealthzDuringReloads(t *testing.T) {
	s, ix, m := newTestServer(t, Config{})
	s.load = func(ctx context.Context) (Loaded, error) { return Loaded{Index: ix, Model: m}, nil }
	h := s.Handler()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				w := fetch(h, http.MethodGet, "/healthz", "")
				var hz healthResponse
				if err := json.Unmarshal(w.Body.Bytes(), &hz); w.Code != http.StatusOK || err != nil {
					errs <- fmt.Errorf("healthz %d: %d %v\n%s", i, w.Code, err, w.Body)
					return
				}
				if hz.Status != "ok" || hz.Companies != ix.N() {
					errs <- fmt.Errorf("healthz %d: torn response %+v", i, hz)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			if w := fetch(h, http.MethodPost, "/admin/reload", ""); w.Code != http.StatusOK {
				errs <- fmt.Errorf("reload %d: status %d", i, w.Code)
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
