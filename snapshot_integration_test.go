package hiddenlayer

// End-to-end test for the IBSNAP v2 rollout path as the debug listener shows
// it: ibtrain writes the v2 container, an ibserve over it maps the model at
// boot and again at /admin/reload, and one over the committed legacy v1 model
// decodes it without a mapping. TestServeDifferential's binary rounds hold
// both formats' answers, across a reload, to one reference.

import (
	"net/http"
	"path/filepath"
	"testing"

	"repro/internal/proctest"
	"repro/internal/snapshot"
)

func TestSnapshotFormatsServeIdentical(t *testing.T) {
	ibserve := tools.Path(t, "ibserve")
	corpusPath, v2Path := sharedFixture(t)
	v1Path := filepath.Join("internal", "lda", "testdata", "model_v1_k3v38.ibsnap")
	for _, tc := range []struct {
		model   string
		version uint16
		mapped  float64 // snapshot_mmap_loads_total after the boot and one reload
	}{{v1Path, 1, 0}, {v2Path, snapshot.Version2, 2}} {
		if got, err := snapshot.FileVersion(tc.model); err != nil || got != tc.version {
			t.Fatalf("%s: container version %d (%v), want %d", tc.model, got, err, tc.version)
		}
		srv := proctest.Start(t, ibserve, "-corpus", corpusPath, "-model", tc.model,
			"-addr", "localhost:0", "-debug-addr", "localhost:0", "-quiet")
		if resp, body := fetch(t, srv.Base+"/admin/reload", struct{}{}); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /admin/reload: status %d\n%s", tc.model, resp.StatusCode, body)
		}
		if got := proctest.Metric(t, srv.Metrics(t), "snapshot_mmap_loads_total"); got != tc.mapped {
			t.Errorf("%s: snapshot_mmap_loads_total = %v, want %v", tc.model, got, tc.mapped)
		}
	}
}
