package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/obs"
)

func gaugeValue(name string) float64 { return obs.Default().Gauge(name, "").Value() }

func matches(ids ...int) []core.Match {
	out := make([]core.Match, len(ids))
	for i, id := range ids {
		out[i] = core.Match{CompanyID: id, Similarity: 1 / float64(i+1)}
	}
	return out
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []core.Match
		want float64
	}{
		{matches(1, 2, 3), matches(1, 2, 3), 1},
		{matches(1, 2), matches(3, 4), 0},
		{matches(1, 2, 3), matches(2, 3, 4), 0.5},
		{nil, nil, 1},
		{matches(1), nil, 0},
	}
	for i, c := range cases {
		if got := jaccard(c.a, c.b); got != c.want {
			t.Fatalf("case %d: jaccard = %g, want %g", i, got, c.want)
		}
	}
}

func TestRecall(t *testing.T) {
	cases := []struct {
		served, exact []core.Match
		want          float64
	}{
		{matches(3, 1, 2), matches(3, 1, 2), 1},
		{matches(1, 3, 9), matches(3, 1, 2), 2.0 / 3.0}, // rank order does not count
		{nil, nil, 1},
		{matches(4), nil, 1},
		{nil, matches(1, 2), 0},
	}
	for i, c := range cases {
		if got := recall(c.served, c.exact); got != c.want {
			t.Fatalf("case %d: recall = %g, want %g", i, got, c.want)
		}
	}
}

// TestProbeIDs pins the probe set: every id below P companies, P evenly
// spaced ids from 0 above it.
func TestProbeIDs(t *testing.T) {
	if got := probeIDs(0); len(got) != 0 {
		t.Fatalf("probeIDs(0) = %v, want none", got)
	}
	if got, want := probeIDs(5), []int{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("probeIDs(5) = %v, want %v", got, want)
	}
	got := probeIDs(1000)
	if len(got) != probeCount || got[0] != 0 || got[1] != 3 || got[probeCount-1] != 996 {
		t.Fatalf("probeIDs(1000) = %v, want %d ids i*1000/%d", got, probeCount, probeCount)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("probeIDs(1000) is not strictly ascending at %d: %v", i, got)
		}
	}
}

// TestReloadCanaryAndGuard drives the reload probe check: a clean reload
// scores Jaccard 1 and swaps; the same reload twice gives byte-identical
// verdicts; a generation with every row reversed is refused under the guard
// with 409 and burns no generation number; and a pruned generation's probe
// recall, at boot and at reload, is the direct exact-vs-ANN comparison.
func TestReloadCanaryAndGuard(t *testing.T) {
	_, ix, m := newTestServer(t, Config{})
	c := ix.Corpus
	newGen := func(reps *mat.Matrix) *core.Index {
		g, err := core.NewIndex(c, reps, core.Cosine)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// The "bad" generation maps every company onto the reverse row order:
	// same ids, same shapes, different neighbourhoods, the silent corruption
	// the guard exists to catch.
	rev := mat.New(ix.Reps.Rows, ix.Reps.Cols)
	for i := 0; i < ix.Reps.Rows; i++ {
		copy(rev.Row(i), ix.Reps.Row(ix.Reps.Rows-1-i))
	}
	good, bad := newGen(ix.Reps), newGen(rev)

	incoming := good
	srv, err := New(Loaded{Index: ix, Model: m}, func(context.Context) (Loaded, error) {
		return Loaded{Index: incoming, Model: m}, nil
	}, Config{ReloadGuard: 0.999, Quiet: true, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reload := func() (int, reloadResponse, json.RawMessage) {
		w := fetch(srv.Handler(), http.MethodPost, "/admin/reload", "")
		var resp reloadResponse
		var raw struct{ Canary json.RawMessage }
		decoded(t, w, &resp)
		decoded(t, w, &raw)
		return w.Code, resp, raw.Canary
	}

	code, resp, first := reload()
	if code != http.StatusOK || resp.Generation != 2 {
		t.Fatalf("clean reload = %d %+v, want 200 at generation 2", code, resp)
	}
	if v := resp.Canary; v.Probes != c.N() || v.MeanJaccard != 1 || v.MinJaccard != 1 || v.Recall != nil {
		t.Fatalf("clean canary = %+v, want %d probes at Jaccard 1 and no recall (exact index)", v, c.N())
	}
	if j := gaugeValue("serve_reload_jaccard"); j != 1 {
		t.Fatalf("serve_reload_jaccard = %v after a clean reload, want 1", j)
	}
	code, resp, second := reload()
	if code != http.StatusOK || resp.Generation != 3 || string(second) != string(first) {
		t.Fatalf("second clean reload = %d at generation %d, canary %s; want 200 at 3 with %s", code, resp.Generation, second, first)
	}

	// The reversed generation is refused: 409, an error tick, and the
	// serving generation stays.
	errs0 := counterValue("serve_reload_errors_total")
	before := fetch(srv.Handler(), http.MethodGet, "/v1/similar/0?k=5", "").Body.String()
	incoming = bad
	if code, _, _ := reload(); code != http.StatusConflict {
		t.Fatalf("reversed reload = %d, want 409", code)
	}
	if got := counterValue("serve_reload_errors_total"); got != errs0+1 {
		t.Fatalf("serve_reload_errors_total = %d, want %d", got, errs0+1)
	}
	if j := gaugeValue("serve_reload_jaccard"); j >= 0.999 {
		t.Fatalf("serve_reload_jaccard = %v, want < 0.999 for the reversed generation", j)
	}
	if after := fetch(srv.Handler(), http.MethodGet, "/v1/similar/0?k=5", "").Body.String(); after != before {
		t.Fatalf("a refused reload changed answers:\nbefore: %s\nafter:  %s", before, after)
	}
	incoming = good
	if code, resp, _ := reload(); code != http.StatusOK || resp.Generation != 4 {
		t.Fatalf("recovered reload = %d at generation %d, want 200 at 4 (a refusal burns no generation)", code, resp.Generation)
	}

	// A pruned generation: its recall is the mean share of each probe's
	// exact top-k that its served top-k holds.
	pruned := newGen(ix.Reps)
	pruned.SetPruner(annRouter(t, pruned, 5, 2))
	k := 10
	var sum float64
	for id := range c.N() {
		served := must(pruned.TopK(id, k, core.Filter{}))
		exact := must(good.TopK(id, k, core.Filter{}))
		var hits int
		for _, e := range exact {
			if slices.ContainsFunc(served, func(m core.Match) bool { return m.CompanyID == e.CompanyID }) {
				hits++
			}
		}
		sum += float64(hits) / float64(len(exact))
	}
	want := sum / float64(c.N())
	if want <= 0 || want >= 1 {
		t.Fatalf("direct recall %v: the fixture prunes nothing or everything", want)
	}
	psrv, err := New(Loaded{Index: pruned, Model: m}, func(context.Context) (Loaded, error) {
		return Loaded{Index: pruned, Model: m}, nil
	}, Config{Quiet: true, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	if got := gaugeValue("ann_observed_recall"); got != want {
		t.Fatalf("ann_observed_recall at boot = %v, want %v", got, want)
	}
	w := fetch(psrv.Handler(), http.MethodPost, "/admin/reload", "")
	resp = reloadResponse{}
	decoded(t, w, &resp)
	if w.Code != http.StatusOK || resp.Canary.Recall == nil || *resp.Canary.Recall != want || resp.Canary.MeanJaccard != 1 {
		t.Fatalf("pruned reload = %d %s, want recall %v at Jaccard 1", w.Code, w.Body, want)
	}
	if got := gaugeValue("ann_observed_recall"); got != want {
		t.Fatalf("ann_observed_recall after reload = %v, want %v", got, want)
	}
}
