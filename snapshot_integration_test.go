package hiddenlayer

// End-to-end test for the IBSNAP v2 rollout path: stand an ibserve over the
// committed legacy v1 model and another over its v2 twin, and require every
// query endpoint to answer byte-identically across the formats — then reload
// the v2 server to exercise the mmap generation swap under the real binary.

import (
	"bytes"
	"net/http"
	"path/filepath"
	"testing"

	"repro/internal/lda"
	"repro/internal/snapshot"
)

func TestSnapshotFormatsServeIdentical(t *testing.T) {
	ibgen := tool(t, "ibgen")
	ibserve := tool(t, "ibserve")
	dir := t.TempDir()

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

	serve := func(modelPath string) string {
		return startProc(t, ibserve, "-corpus", corpusPath, "-model", modelPath,
			"-addr", "localhost:0", "-k", "5", "-grace", "5s", "-quiet").base
	}
	baseV1 := serve(v1Path)
	baseV2 := serve(v2Path)

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
	answer := func(base string, q query) []byte {
		t.Helper()
		resp, body := fetch(t, base+q.path, q.payload)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", q.path, resp.StatusCode, body)
		}
		return body
	}
	for _, q := range queries {
		b1 := answer(baseV1, q)
		b2 := answer(baseV2, q)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s differs across snapshot formats\nv1: %s\nv2: %s", q.path, b1, b2)
		}
	}

	// Reload the v2 server (mmap generation swap in the real binary) and
	// confirm answers survive unchanged.
	if resp, body := fetch(t, baseV2+"/admin/reload", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("/admin/reload: status %d\n%s", resp.StatusCode, body)
	}
	for _, q := range queries {
		if !bytes.Equal(answer(baseV1, q), answer(baseV2, q)) {
			t.Fatalf("%s differs after v2 reload", q.path)
		}
	}
}
