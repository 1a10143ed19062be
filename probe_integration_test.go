package hiddenlayer

// End-to-end test of the reload probe check on the ibserve binary: an ANN
// server measures its probe recall at boot into ann_observed_recall, every
// /admin/reload reports the probe verdict of the incoming generation as its
// "canary", the same files reloaded twice give byte-identical verdicts, and
// -reload-guard refuses a generation whose answers moved.

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/proctest"
)

func TestReloadProbeIntegration(t *testing.T) {
	ibtrain := tools.Path(t, "ibtrain")
	ibserve := tools.Path(t, "ibserve")

	const companies = 240
	dir := t.TempDir()
	corpusPath, modelPath := writeModel(t, dir, companies)
	otherPath := filepath.Join(dir, "other.gob")
	proctest.Run(t, ibtrain, "-model", "lda", "-topics=2", "-corpus", corpusPath,
		"-out", otherPath, "-seed", "99")
	// The serving generation maps the model file, so a model is swapped in
	// by renaming a copy over the path, never by rewriting it in place.
	install := func(src string) {
		t.Helper()
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		tmp := modelPath + ".tmp"
		if err := os.WriteFile(tmp, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, modelPath); err != nil {
			t.Fatal(err)
		}
	}
	goodPath := filepath.Join(dir, "good.gob")
	raw, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goodPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A genuinely pruned ANN server (nprobe 2 of 12 cells) with a strict
	// guard and no other quality flag.
	srv := proctest.Start(t, ibserve,
		"-corpus", corpusPath, "-model", modelPath,
		"-addr", "localhost:0", "-debug-addr", "localhost:0", "-quiet",
		"-ann", "-ann-cells", "12", "-ann-nprobe", "2",
		"-reload-guard", "0.999")

	bootRecall := proctest.Metric(t, srv.Metrics(t), "ann_observed_recall")
	if bootRecall <= 0 || bootRecall > 1 {
		t.Fatalf("ann_observed_recall at boot = %v, want in (0, 1]", bootRecall)
	}

	type verdict struct {
		Probes      int      `json:"probes"`
		MeanJaccard float64  `json:"mean_jaccard"`
		MinJaccard  float64  `json:"min_jaccard"`
		Recall      *float64 `json:"recall"`
	}
	reload := func() (int, uint64, json.RawMessage, []byte) {
		r, body := fetch(t, srv.Base+"/admin/reload", map[string]any{})
		var resp struct {
			Generation uint64          `json:"generation"`
			Canary     json.RawMessage `json:"canary"`
		}
		if r.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("/admin/reload: %v\n%s", err, body)
			}
		}
		return r.StatusCode, resp.Generation, resp.Canary, body
	}

	// The files on disk are unchanged, so the rebuilt generation answers
	// every probe as the serving one does, and its recall is the boot one.
	code, gen, first, body := reload()
	if code != http.StatusOK || gen != 2 {
		t.Fatalf("/admin/reload = %d at generation %d, want 200 at 2\n%s", code, gen, body)
	}
	var v verdict
	if err := json.Unmarshal(first, &v); err != nil {
		t.Fatal(err)
	}
	if v.Probes != companies || v.MeanJaccard != 1 || v.MinJaccard != 1 || v.Recall == nil || *v.Recall != bootRecall {
		t.Fatalf("clean canary = %s, want %d probes at Jaccard 1 with recall %v", first, companies, bootRecall)
	}
	if got := proctest.Metric(t, srv.Metrics(t), "serve_reload_jaccard"); got != 1 {
		t.Fatalf("serve_reload_jaccard = %v after a clean reload, want 1", got)
	}
	code, gen, second, body := reload()
	if code != http.StatusOK || gen != 3 || string(second) != string(first) {
		t.Fatalf("second reload = %d at generation %d, canary %s; want 200 at 3 with %s\n%s", code, gen, second, first, body)
	}

	// A differently trained model moves the answers: the guard refuses it
	// with 409 and the serving generation stays.
	install(otherPath)
	if code, _, _, body := reload(); code != http.StatusConflict {
		t.Fatalf("reload of a different model = %d, want 409\n%s", code, body)
	}
	metrics := srv.Metrics(t)
	if got := proctest.Metric(t, metrics, "serve_reload_jaccard"); got >= 0.999 {
		t.Fatalf("serve_reload_jaccard = %v for the different model, want < 0.999", got)
	}
	if got := proctest.Metric(t, metrics, "serve_reload_errors_total"); got != 1 {
		t.Fatalf("serve_reload_errors_total = %v, want 1", got)
	}
	install(goodPath)
	if code, gen, _, body := reload(); code != http.StatusOK || gen != 4 {
		t.Fatalf("reload after restoring the model = %d at generation %d, want 200 at 4\n%s", code, gen, body)
	}
}
