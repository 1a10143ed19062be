package hiddenlayer

// End-to-end smoke tests for the command-line tools: each binary is built
// once into a temp dir and driven the way a user would drive it, against a
// real corpus file.

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildTool compiles one cmd/ binary into dir and returns its path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	ibgen := buildTool(t, dir, "ibgen")
	ibtrain := buildTool(t, dir, "ibtrain")
	ibrec := buildTool(t, dir, "ibrec")
	ibeval := buildTool(t, dir, "ibeval")

	corpusPath := filepath.Join(dir, "corpus.jsonl")

	// ibgen: generate and validate a corpus.
	out := runTool(t, ibgen, "-companies", "300", "-seed", "3", "-out", corpusPath)
	if !strings.Contains(out, "300 companies") {
		t.Fatalf("ibgen output: %s", out)
	}
	if _, err := os.Stat(corpusPath); err != nil {
		t.Fatal("corpus file missing")
	}

	// ibgen -sites: the aggregation path.
	sitesCorpus := filepath.Join(dir, "sites.jsonl")
	out = runTool(t, ibgen, "-companies", "100", "-seed", "4", "-sites", "-out", sitesCorpus)
	if !strings.Contains(out, "100 companies") {
		t.Fatalf("ibgen -sites output: %s", out)
	}

	// ibtrain: every model family trains and persists.
	for _, tc := range []struct{ model, extra string }{
		{"lda", "-topics=3"},
		{"ngram", "-order=2"},
		{"chh", "-depth=2"},
		{"bpmf", "-rank=3"},
	} {
		modelPath := filepath.Join(dir, tc.model+".gob")
		out = runTool(t, ibtrain, "-model", tc.model, tc.extra,
			"-corpus", corpusPath, "-out", modelPath, "-seed", "1")
		if !strings.Contains(out, "model written") {
			t.Fatalf("ibtrain %s output: %s", tc.model, out)
		}
		if fi, err := os.Stat(modelPath); err != nil || fi.Size() == 0 {
			t.Fatalf("%s model not persisted", tc.model)
		}
	}
	// LSTM with a tiny architecture to keep the test fast.
	lstmPath := filepath.Join(dir, "lstm.gob")
	out = runTool(t, ibtrain, "-model", "lstm", "-layers", "1", "-hidden", "8",
		"-epochs", "1", "-corpus", corpusPath, "-out", lstmPath, "-seed", "1")
	if !strings.Contains(out, "test perplexity") {
		t.Fatalf("ibtrain lstm output: %s", out)
	}

	// ibrec: similarity search with a pre-trained model.
	out = runTool(t, ibrec, "-corpus", corpusPath, "-model", filepath.Join(dir, "lda.gob"),
		"-company", "5", "-k", "3")
	if !strings.Contains(out, "similar to") {
		t.Fatalf("ibrec output: %s", out)
	}
	// ibrec: recommendations and whitespace.
	out = runTool(t, ibrec, "-corpus", corpusPath, "-model", filepath.Join(dir, "lda.gob"),
		"-company", "5", "-recommend", "-peers", "10", "-k", "3")
	if !strings.Contains(out, "recommendations") {
		t.Fatalf("ibrec -recommend output: %s", out)
	}
	out = runTool(t, ibrec, "-corpus", corpusPath, "-model", filepath.Join(dir, "lda.gob"),
		"-clients", "1,2,3", "-whitespace", "-k", "3")
	if !strings.Contains(out, "white-space prospects") {
		t.Fatalf("ibrec -whitespace output: %s", out)
	}

	// ibeval: one fast experiment on the generated corpus.
	out = runTool(t, ibeval, "-exp", "seqtest", "-scale", "quick", "-corpus", corpusPath)
	if !strings.Contains(out, "Sequentiality test") {
		t.Fatalf("ibeval output: %s", out)
	}
	// A mistyped -exp is rejected before the corpus is touched: the missing
	// corpus file must not be what the run complains about.
	bad, err := exec.Command(ibeval, "-exp", "fig33", "-corpus", filepath.Join(dir, "missing.jsonl")).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(bad), `unknown experiment "fig33"`) {
		t.Fatalf("ibeval -exp fig33: err %v, want exit 2 naming the experiment\n%s", err, bad)
	}
}
