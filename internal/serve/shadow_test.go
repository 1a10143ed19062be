package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/shadow"
)

func gaugeValue(name string) float64 { return obs.Default().Gauge(name, "").Value() }

// newShadowServer builds an ANN-routed server (cells/nprobe approximate, so
// divergence is possible) with the given shadow/reload configuration.
func newShadowServer(t *testing.T, cfg Config) (*Server, *core.Index) {
	t.Helper()
	s, ix, _ := newTestServer(t, cfg)
	ix.SetPruner(annRouter(t, ix, 5, 2))
	return s, ix
}

// TestShadowDisabledInvariance runs the serving oracle with shadow sampling on
// an ANN-routed index in every round, so sampling must change no served byte.
// The oracle's pruner probes every cell, so its samples never diverge; the
// pair here probes 2 of 5 cells, so the worst-ring and recall paths run
// beside a byte comparison (GETs, and a POST sent twice).
// Traffic registers no metric name; /healthz carries a shadow block and
// /debug/recall is mounted exactly when sampling is on.
func TestShadowDisabledInvariance(t *testing.T) {
	serveOracle(t, 7001, 1, func(v *variant) { v.ann, v.shadow = 1, 1 })
	on, _ := newShadowServer(t, Config{Shadow: &shadow.Config{SampleN: 1, Seed: 5}})
	defer on.shadow.Close()
	off, _ := newShadowServer(t, Config{})
	names := strings.Join(obs.Default().Names(), "\n")
	ws := `{"clients":[1,2],"k":5}`
	for _, rq := range [][3]string{
		{http.MethodGet, "/v1/similar/0?k=5", ""},
		{http.MethodGet, "/v1/similar/7?k=3&country=US", ""},
		{http.MethodGet, "/v1/similar/7?k=3&country=US", ""},
		{http.MethodPost, "/v1/whitespace", ws},
		{http.MethodPost, "/v1/whitespace", ws},
	} {
		a, b := fetch(off.Handler(), rq[0], rq[1], rq[2]), fetch(on.Handler(), rq[0], rq[1], rq[2])
		if a.Code != http.StatusOK || b.Code != a.Code || b.Body.String() != a.Body.String() {
			t.Fatalf("%s %s diverges with sampling on:\noff: %d %s\non:  %d %s", rq[0], rq[1], a.Code, a.Body, b.Code, b.Body)
		}
	}
	if now := strings.Join(obs.Default().Names(), "\n"); now != names {
		t.Fatalf("serving traffic registered new metric names:\nbefore:\n%s\nafter:\n%s", names, now)
	}
	for _, s := range []*Server{off, on} {
		sampling := s == on
		if w := fetch(s.Handler(), http.MethodGet, "/healthz", ""); strings.Contains(w.Body.String(), `"shadow"`) != sampling {
			t.Fatalf("sampling %v: /healthz %s", sampling, w.Body)
		}
		if w, want := fetch(s.Handler(), http.MethodGet, "/debug/recall", ""), map[bool]int{false: 404, true: 200}[sampling]; w.Code != want {
			t.Fatalf("sampling %v: /debug/recall = %d, want %d", sampling, w.Code, want)
		}
	}
}

// TestShadowSamplingPopulates drives queries through an ANN server sampling
// at 1-in-1 and asserts the full observability surface fills in:
// processed-sample counters, the ann_observed_recall gauge, the /debug/recall
// worst ring with replayable query descriptions, and the /healthz shadow
// summary. A repeated query is served and sampled again like any other.
func TestShadowSamplingPopulates(t *testing.T) {
	s, _ := newShadowServer(t, Config{Shadow: &shadow.Config{SampleN: 1, Seed: 7}})
	h := s.Handler()
	defer s.shadow.Close()

	samples0 := counterValue("shadow_samples_total")
	for i := 0; i < 6; i++ {
		if resp := getJSON(t, h, fmt.Sprintf("/v1/similar/%d?k=5", i*3), nil); resp.Code != http.StatusOK {
			t.Fatalf("similar %d: status %d", i, resp.Code)
		}
	}
	getJSON(t, h, "/v1/similar/0?k=5", nil) // a repeat: sampled again
	postJSON(t, h, "/v1/whitespace", api.WhitespaceRequest{Clients: []int{1, 2}, K: 5}, nil)
	waitFor(t, "shadow_samples_total", func() bool { return counterValue("shadow_samples_total") >= samples0+8 })
	if got := counterValue("shadow_samples_total"); got != samples0+8 {
		t.Fatalf("shadow_samples_total = %d, want exactly %d (one per ANN-served query)", got, samples0+8)
	}

	if recall := gaugeValue("ann_observed_recall"); recall <= 0 || recall > 1 {
		t.Fatalf("ann_observed_recall = %v, want in (0, 1]", recall)
	}
	mean, n := s.shadow.ObservedRecall()
	if n < 8 || mean <= 0 {
		t.Fatalf("ObservedRecall = (%v, %d), want >= 8 window samples", mean, n)
	}

	var st shadow.Status
	getJSON(t, h, "/debug/recall", &st)
	if !st.Enabled || st.SampleOneIn != 1 || len(st.Worst) == 0 {
		t.Fatalf("/debug/recall = %+v, want enabled with worst entries", st)
	}
	kinds := map[string]bool{}
	for _, e := range st.Worst {
		kinds[e.Kind] = true
		if e.K != 5 {
			t.Fatalf("worst entry k = %d, want 5: %+v", e.K, e)
		}
	}
	if !kinds["similar"] || !kinds["whitespace"] {
		t.Fatalf("worst ring kinds = %v, want both similar and whitespace", kinds)
	}

	var hz healthResponse
	getJSON(t, h, "/healthz", &hz)
	if hz.Shadow == nil || hz.Shadow.SampleOneIn != 1 || hz.Shadow.WindowSamples < 8 {
		t.Fatalf("/healthz shadow = %+v, want sample_one_in=1 with window samples", hz.Shadow)
	}
	if hz.Shadow.ObservedRecall != mean {
		t.Fatalf("/healthz observed_recall = %v, want %v", hz.Shadow.ObservedRecall, mean)
	}
}

// TestReloadCanaryAndGuard exercises the reload canary end to end: an
// identical incoming generation reports a clean diff (Jaccard 1, zero recall
// delta) and swaps; a scrambled generation under -reload-guard is refused
// with 409, counted, and leaves the serving generation in place; and the
// guard stands down once the incoming generation is healthy again.
func TestReloadCanaryAndGuard(t *testing.T) {
	s, ix, m := newTestServer(t, Config{})
	_ = s // fixture only; the guarded server below is the one that serves
	ix.SetPruner(annRouter(t, ix, 5, 2))
	c := ix.Corpus

	newGen := func(reps *mat.Matrix) *core.Index {
		g, err := core.NewIndex(c, reps, core.Cosine)
		if err != nil {
			t.Fatal(err)
		}
		g.SetPruner(annRouter(t, g, 5, 2))
		return g
	}
	good := newGen(ix.Reps)
	// The "bad" generation maps every company onto the reverse row order:
	// same ids, same shapes, completely different neighbourhoods — exactly
	// the silent-corruption case the canary exists to catch.
	rev := mat.New(ix.Reps.Rows, ix.Reps.Cols)
	for i := 0; i < ix.Reps.Rows; i++ {
		copy(rev.Row(i), ix.Reps.Row(ix.Reps.Rows-1-i))
	}
	bad := newGen(rev)

	incoming := good
	srv, err := New(Loaded{Index: ix, Model: m}, func(ctx context.Context) (Loaded, error) {
		return Loaded{Index: incoming, Model: m}, nil
	}, Config{Shadow: &shadow.Config{SampleN: 1, Seed: 11}, ReloadGuard: 0.999, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	defer srv.shadow.Close()

	// An empty replay buffer means nothing to diff: the reload proceeds with
	// no canary block at all.
	var resp reloadResponse
	if r := postJSON(t, h, "/admin/reload", nil, &resp); r.Code != http.StatusOK {
		t.Fatalf("reload with empty buffer = %d, want 200", r.Code)
	}
	if resp.Canary != nil || resp.Generation != 2 {
		t.Fatalf("empty-buffer reload = %+v, want gen 2 without canary", resp)
	}

	for i := 0; i < 5; i++ {
		getJSON(t, h, fmt.Sprintf("/v1/similar/%d?k=5", i*7), nil)
	}
	// Wait on this server's sampler: another test's may still be moving the
	// process-wide shadow_samples_total, and the sampler counts a sample there
	// before the replay buffer the canary reads holds it.
	waitFor(t, "5 samples recorded", func() bool { return srv.shadow.Status().Samples >= 5 })

	// Identical incoming generation: clean diff, swap allowed.
	canaries0 := counterValue("shadow_reload_canaries_total")
	refusals0 := counterValue("shadow_reload_refusals_total")
	resp = reloadResponse{}
	if r := postJSON(t, h, "/admin/reload", nil, &resp); r.Code != http.StatusOK {
		t.Fatalf("clean reload = %d, want 200", r.Code)
	}
	if resp.Canary == nil || !resp.Reloaded || resp.Generation != 3 {
		t.Fatalf("clean reload = %+v, want gen 3 with canary", resp)
	}
	if resp.Canary.Queries != 5 || resp.Canary.Errors != 0 ||
		resp.Canary.MeanJaccard != 1 || resp.Canary.MinJaccard != 1 || resp.Canary.RecallDelta != 0 {
		t.Fatalf("clean canary = %+v, want 5 queries at Jaccard 1 with zero recall delta", resp.Canary)
	}
	if got := counterValue("shadow_reload_canaries_total"); got != canaries0+1 {
		t.Fatalf("shadow_reload_canaries_total = %d, want %d", got, canaries0+1)
	}

	// Scrambled incoming generation: the guard refuses the swap with 409,
	// counts the refusal, and keeps serving the old generation.
	incoming = bad
	r := postJSON(t, h, "/admin/reload", nil, nil)
	if r.Code != http.StatusConflict {
		t.Fatalf("scrambled reload = %d, want 409", r.Code)
	}
	if got := counterValue("shadow_reload_refusals_total"); got != refusals0+1 {
		t.Fatalf("shadow_reload_refusals_total = %d, want %d", got, refusals0+1)
	}
	if j := gaugeValue("shadow_reload_diff_jaccard"); j >= 0.999 {
		t.Fatalf("shadow_reload_diff_jaccard = %v, want < 0.999 for the scrambled generation", j)
	}
	// The refused generation never took traffic: queries still answer from
	// the healthy index, identically to before the refused reload.
	before := fetch(srv.Handler(), http.MethodGet, "/v1/similar/0?k=5", "").Body.String()
	incoming = good
	resp = reloadResponse{}
	if r := postJSON(t, h, "/admin/reload", nil, &resp); r.Code != http.StatusOK {
		t.Fatalf("recovered reload = %d, want 200", r.Code)
	}
	if resp.Generation != 4 {
		t.Fatalf("recovered reload generation = %d, want 4 (the refusal must not burn a generation)", resp.Generation)
	}
	after := fetch(srv.Handler(), http.MethodGet, "/v1/similar/0?k=5", "").Body.String()
	if before != after {
		t.Fatalf("healthy reload changed answers:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestShadowChaosComposition is the drill-compatibility contract: with chaos
// fault injection in front of the handler AND the shadow exact path failing
// deterministically (ExactFault), served responses stay byte-identical to a
// non-sampling server behind the same chaos seed, serve_*_errors_total never
// moves (chaos 503s short-circuit before the handler; shadow failures are
// off-path by construction), and the injected shadow failures land in
// shadow_exact_errors_total instead.
func TestShadowChaosComposition(t *testing.T) {
	cc := chaos.Config{Seed: 9, ErrorRate: 0.4}
	on, _ := newShadowServer(t, Config{Shadow: &shadow.Config{
		SampleN: 1, Seed: 3,
		ExactFault: func() error { return errors.New("injected shadow drill fault") },
	}})
	off, _ := newShadowServer(t, Config{})
	hOn, hOff := chaos.Middleware(cc, on.Handler()), chaos.Middleware(cc, off.Handler())
	defer on.shadow.Close()

	serveErrs0 := counterValue("serve_similar_errors_total")
	exactErrs0 := counterValue("shadow_exact_errors_total")
	samples0 := counterValue("shadow_samples_total")
	var served uint64
	for i := 0; i < 25; i++ {
		path := fmt.Sprintf("/v1/similar/%d?k=5", i)
		wOff, wOn := fetch(hOff, http.MethodGet, path, ""), fetch(hOn, http.MethodGet, path, "")
		if wOff.Code != wOn.Code || wOff.Body.String() != wOn.Body.String() {
			t.Fatalf("%s diverges under chaos: off=(%d, %s) on=(%d, %s)", path, wOff.Code, wOff.Body, wOn.Code, wOn.Body)
		}
		if wOn.Code == http.StatusOK {
			served++
		}
	}
	if served == 0 || served == 25 {
		t.Fatalf("chaos injected %d/25 failures, want a mix to make the composition meaningful", 25-served)
	}

	// Every served query was sampled and its
	// exact leg failed through ExactFault: the drill faults land in
	// shadow_exact_errors_total, never in the serving error counters.
	waitFor(t, "shadow_exact_errors_total", func() bool { return counterValue("shadow_exact_errors_total") >= exactErrs0+served })
	if got := counterValue("shadow_exact_errors_total"); got != exactErrs0+served {
		t.Fatalf("shadow_exact_errors_total = %d, want exactly %d", got, exactErrs0+served)
	}
	if got := counterValue("shadow_samples_total"); got != samples0 {
		t.Fatalf("shadow_samples_total moved by %d, want 0 (every exact leg faulted)", got-samples0)
	}
	if got := counterValue("serve_similar_errors_total"); got != serveErrs0 {
		t.Fatalf("serve_similar_errors_total moved by %d under chaos+shadow, want 0", got-serveErrs0)
	}
}
