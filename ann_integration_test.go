package hiddenlayer

// End-to-end test for the -ann-index snapshot: an ibserve with -ann saves its
// routing index there and serves it from the mapping, and the next boot maps
// the saved index instead of re-clustering, whatever its probe depth. TestServeDifferential's binary
// rounds hold a full-probe -ann ibserve's answers, across a reload, to an
// exact reference.

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"

	"repro/internal/proctest"
)

func TestANNServingIntegration(t *testing.T) {
	ibserve := tools.Path(t, "ibserve")
	corpusPath, modelPath := sharedFixture(t)
	indexPath := filepath.Join(t.TempDir(), "ann.ibsnap")
	boot := func(nprobe string) *proctest.Proc {
		return proctest.Start(t, ibserve, "-corpus", corpusPath, "-model", modelPath,
			"-addr", "localhost:0", "-debug-addr", "localhost:0", "-quiet",
			"-ann", "-ann-cells", "12", "-ann-nprobe", nprobe, "-ann-index", indexPath)
	}
	// annHealth requires p's /healthz ann block to be mapped at nprobe.
	annHealth := func(p *proctest.Proc, nprobe int) {
		t.Helper()
		var health struct {
			ANN *struct {
				Cells  int  `json:"cells"`
				NProbe int  `json:"nprobe"`
				Mapped bool `json:"mapped"`
			} `json:"ann"`
		}
		resp, body := fetch(t, p.Base+"/healthz", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz: status %d\n%s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &health); err != nil {
			t.Fatal(err)
		}
		if health.ANN == nil || health.ANN.Cells != 12 || health.ANN.NProbe != nprobe || !health.ANN.Mapped {
			t.Fatalf("/healthz ann block = %+v, want cells=12 nprobe=%d mapped=true", health.ANN, nprobe)
		}
	}

	// The first boot clusters once, saves the index and serves it mapped.
	first := boot("12")
	metrics := first.Metrics(t)
	if got := proctest.Metric(t, metrics, "ann_index_builds_total"); got != 1 {
		t.Fatalf("first boot clustered %v times, want once", got)
	}
	if got := proctest.Metric(t, metrics, "ann_index_mmap_opens_total"); got < 1 {
		t.Errorf("first boot serves its index from the heap: ann_index_mmap_opens_total %v", got)
	}
	annHealth(first, 12)
	first.Kill()

	// Reboot at another probe depth: the index file does not depend on it.
	// The routed scans of one similar and one whitespace query show on the
	// debug listener.
	pruned := boot("2")
	if resp, body := fetch(t, pruned.Base+"/v1/similar/3", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/similar/3: status %d\n%s", resp.StatusCode, body)
	}
	if resp, body := fetch(t, pruned.Base+"/v1/whitespace", map[string]any{"clients": []int{0, 5, 9}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/whitespace: status %d\n%s", resp.StatusCode, body)
	}
	metrics = pruned.Metrics(t)
	if got := proctest.Metric(t, metrics, "ann_index_builds_total"); got != 0 {
		t.Errorf("reboot re-clustered %v times instead of mapping the saved index", got)
	}
	for _, name := range []string{"ann_index_mmap_opens_total", "ann_topk_queries_total", "ann_topk_candidates_scanned_total", "ann_whitespace_queries_total"} {
		if proctest.Metric(t, metrics, name) == 0 {
			t.Errorf("%s is still zero after the reboot and two routed queries", name)
		}
	}
	annHealth(pruned, 2)
}
