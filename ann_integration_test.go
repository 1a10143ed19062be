package hiddenlayer

// End-to-end test for approximate serving: an ibserve with -ann at full
// probe depth must answer every query endpoint byte-identically to an exact
// ibserve over the same corpus and model (the escape-hatch contract at the
// built-binary level), persist its routing index via -ann-index, and boot
// again from the saved snapshot via mmap without re-clustering.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
)

func TestANNServingIntegration(t *testing.T) {
	ibserve := tool(t, "ibserve")
	dir := t.TempDir()
	corpusPath, modelPath, err := writeModel(t, dir, 240)
	if err != nil {
		t.Fatal(err)
	}
	indexPath := filepath.Join(dir, "ann.ibsnap")

	exact := startProc(t, ibserve,
		"-corpus", corpusPath, "-model", modelPath,
		"-addr", "localhost:0", "-debug-addr", "localhost:0", "-k", "5")
	full := startProc(t, ibserve,
		"-corpus", corpusPath, "-model", modelPath,
		"-addr", "localhost:0", "-debug-addr", "localhost:0", "-k", "5",
		"-ann", "-ann-cells", "12", "-ann-nprobe", "12", "-ann-index", indexPath)

	// The full-probe server advertises its routing index on /healthz; the
	// index was saved to -ann-index and re-opened, so it serves via mmap.
	var health struct {
		ANN *struct {
			Cells  int  `json:"cells"`
			NProbe int  `json:"nprobe"`
			Mapped bool `json:"mapped"`
		} `json:"ann"`
	}
	resp, body := fetch(t, full.base+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d\n%s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.ANN == nil || health.ANN.Cells != 12 || health.ANN.NProbe != 12 || !health.ANN.Mapped {
		t.Fatalf("/healthz ann block = %+v, want cells=12 nprobe=12 mapped=true", health.ANN)
	}
	resp, body = fetch(t, exact.base+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact /healthz: status %d", resp.StatusCode)
	}
	if bytes.Contains(body, []byte(`"ann"`)) {
		t.Fatalf("exact server advertises an ann block:\n%s", body)
	}

	// Every query endpoint, byte-identical at full probe depth.
	compare := func(t *testing.T) {
		t.Helper()
		gets := []string{
			"/v1/similar/3?k=6",
			"/v1/similar/17?k=4&country=US&min_employees=60",
			"/v1/recommend/3?peers=10&k=4",
		}
		for _, path := range gets {
			wr, want := fetch(t, exact.base+path, nil)
			gr, got := fetch(t, full.base+path, nil)
			if wr.StatusCode != http.StatusOK || gr.StatusCode != http.StatusOK {
				t.Fatalf("%s: statuses %d/%d\n%s%s", path, wr.StatusCode, gr.StatusCode, want, got)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s: full-probe response differs from exact\nexact: %s\nann:   %s", path, want, got)
			}
		}
		posts := []struct {
			path    string
			payload any
		}{
			{"/v1/whitespace", map[string]any{"clients": []int{0, 5, 9}, "k": 6}},
			{"/v1/infer", map[string]any{"owned": []int{1, 4, 7}, "k": 5}},
			{"/internal/recommend", map[string]any{
				"company_id": 2, "peers": 2,
				"matches": []map[string]any{
					{"company_id": 5, "similarity": 0.8},
					{"company_id": 9, "similarity": 0.6},
				}}},
		}
		for _, p := range posts {
			wr, want := fetch(t, exact.base+p.path, p.payload)
			gr, got := fetch(t, full.base+p.path, p.payload)
			if wr.StatusCode != http.StatusOK || gr.StatusCode != http.StatusOK {
				t.Fatalf("%s: statuses %d/%d\n%s%s", p.path, wr.StatusCode, gr.StatusCode, want, got)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s: full-probe response differs from exact\nexact: %s\nann:   %s", p.path, want, got)
			}
		}
	}
	compare(t)

	// The routed scans surface on the debug listener.
	metrics := full.metrics(t)
	if metric(t, metrics, "ann_topk_queries_total") == 0 {
		t.Error("ann_topk_queries_total still zero after routed similar queries")
	}
	if metric(t, metrics, "ann_topk_candidates_scanned_total") == 0 {
		t.Error("ann_topk_candidates_scanned_total still zero after routed similar queries")
	}
	if metric(t, metrics, "ann_whitespace_queries_total") == 0 {
		t.Error("ann_whitespace_queries_total still zero after routed whitespace query")
	}
	if metric(t, metrics, "ann_index_mmap_opens_total") == 0 {
		t.Error("ann_index_mmap_opens_total zero — -ann-index did not serve via mmap")
	}

	// Reboot from the saved snapshot: the index must mmap (no re-cluster)
	// and keep answering byte-identically to the exact server.
	full.kill()
	full = startProc(t, ibserve,
		"-corpus", corpusPath, "-model", modelPath,
		"-addr", "localhost:0", "-debug-addr", "localhost:0", "-k", "5",
		"-ann", "-ann-cells", "12", "-ann-nprobe", "12", "-ann-index", indexPath)
	compare(t)
	metrics = full.metrics(t)
	if got := metric(t, metrics, "ann_index_builds_total"); got != 0 {
		t.Errorf("reboot re-clustered %v times instead of mmapping the saved index", got)
	}
	if metric(t, metrics, "ann_index_mmap_opens_total") == 0 {
		t.Error("reboot did not open the saved index via mmap")
	}

	// A genuinely pruned server (nprobe < cells) stays well-formed: the ann
	// block reports the probe depth and queries still rank correctly.
	pruned := startProc(t, ibserve,
		"-corpus", corpusPath, "-model", modelPath,
		"-addr", "localhost:0", "-debug-addr", "localhost:0", "-k", "5",
		"-ann", "-ann-cells", "12", "-ann-nprobe", "2", "-ann-index", indexPath)
	resp, body = fetch(t, pruned.base+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pruned /healthz: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.ANN == nil || health.ANN.NProbe != 2 || !health.ANN.Mapped {
		t.Fatalf("pruned /healthz ann block = %+v, want nprobe=2 mapped=true", health.ANN)
	}
	var similar struct {
		Matches []struct {
			CompanyID  int     `json:"company_id"`
			Similarity float64 `json:"similarity"`
		} `json:"matches"`
	}
	resp, body = fetch(t, pruned.base+"/v1/similar/3?k=5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pruned similar: status %d\n%s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &similar); err != nil {
		t.Fatal(err)
	}
	if len(similar.Matches) != 5 {
		t.Fatalf("pruned similar returned %d matches, want 5", len(similar.Matches))
	}
	for i := 1; i < len(similar.Matches); i++ {
		if similar.Matches[i].Similarity > similar.Matches[i-1].Similarity {
			t.Fatal("pruned matches not sorted by similarity")
		}
	}
}
