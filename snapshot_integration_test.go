package hiddenlayer

// End-to-end test for the IBSNAP v2 rollout path: stand an ibserve over the
// committed legacy v1 model and another over its v2 twin, and require every
// query endpoint to answer byte-identically across the formats — then reload
// the v2 server to exercise the mmap generation swap under the real binary.

import (
	"bufio"
	"bytes"
	"net/http"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/lda"
	"repro/internal/snapshot"
)

// startServe launches ibserve over (corpus, model) and returns the query base
// URL plus a stop func.
func startServe(t *testing.T, ibserve, corpusPath, modelPath string) string {
	t.Helper()
	cmd := exec.Command(ibserve,
		"-corpus", corpusPath, "-model", modelPath,
		"-addr", "localhost:0", "-k", "5", "-grace", "5s", "-quiet")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		if t.Failed() && stderr.Len() > 0 {
			t.Logf("ibserve stderr (%s):\n%s", filepath.Base(modelPath), stderr.String())
		}
	})
	sc := bufio.NewScanner(stdout)
	return "http://" + scrapeAddr(t, sc, "serving on ")
}

func TestSnapshotFormatsServeIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	ibgen := buildTool(t, dir, "ibgen")
	ibserve := buildTool(t, dir, "ibserve")

	// The v1 model was trained on this corpus with -topics=3 -seed 1 by the
	// last ibtrain that wrote v1; its v2 twin is written here.
	corpusPath := filepath.Join(dir, "corpus.jsonl")
	v1Path := filepath.Join("internal", "lda", "testdata", "model_v1_k3v38.ibsnap")
	v2Path := filepath.Join(dir, "lda_v2.ibsnap")
	runTool(t, ibgen, "-companies", "120", "-seed", "9", "-out", corpusPath)
	m, closeV1, err := lda.LoadFile(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := closeV1(); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Atomic(v2Path, m.Save); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]uint16{v1Path: 1, v2Path: snapshot.Version2} {
		if got, err := snapshot.FileVersion(path); err != nil || got != want {
			t.Fatalf("%s: container version %d (%v), want %d", path, got, err, want)
		}
	}

	baseV1 := startServe(t, ibserve, corpusPath, v1Path)
	baseV2 := startServe(t, ibserve, corpusPath, v2Path)

	type query struct {
		path    string
		payload any // nil → GET
	}
	queries := []query{
		{"/v1/similar/3?k=5", nil},
		{"/v1/similar/7?k=3&min_employees=1", nil},
		{"/v1/recommend/12?peers=10", nil},
		{"/v1/whitespace", map[string]any{"clients": []int{1, 5, 9}, "k": 4}},
		{"/v1/infer", map[string]any{"owned": []int{0, 4, 7}, "k": 4}},
	}
	fetch := func(base string, q query) []byte {
		t.Helper()
		var code int
		var body []byte
		if q.payload == nil {
			code, body = httpGetBody(t, base+q.path)
		} else {
			code, body = httpPostBody(t, base+q.path, q.payload)
		}
		if code != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", q.path, code, body)
		}
		return body
	}
	for _, q := range queries {
		b1 := fetch(baseV1, q)
		b2 := fetch(baseV2, q)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s differs across snapshot formats\nv1: %s\nv2: %s", q.path, b1, b2)
		}
	}

	// Reload the v2 server (mmap generation swap in the real binary) and
	// confirm answers survive unchanged.
	if code, body := httpPostBody(t, baseV2+"/admin/reload", nil); code != http.StatusOK {
		t.Fatalf("/admin/reload: status %d\n%s", code, body)
	}
	for _, q := range queries {
		if !bytes.Equal(fetch(baseV1, q), fetch(baseV2, q)) {
			t.Fatalf("%s differs after v2 reload", q.path)
		}
	}
}
