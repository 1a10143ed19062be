package hiddenlayer

// End-to-end smoke tests for the command-line tools: each binary is driven
// the way a user would drive it, against a real corpus file.

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCommandLineTools(t *testing.T) {
	ibgen := tool(t, "ibgen")
	ibtrain := tool(t, "ibtrain")
	ibrec := tool(t, "ibrec")
	ibeval := tool(t, "ibeval")
	dir := t.TempDir()

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

// TestBinariesRefuseIDOffRow: answers name companies by row, so a corpus
// whose line 3 (row 1) carries id 1000 is refused before any expensive boot
// work — by ibserve while it decodes the file, by ibrec before it selects a
// model. Both exit 1 naming the row.
func TestBinariesRefuseIDOffRow(t *testing.T) {
	ibgen, ibtrain := tool(t, "ibgen"), tool(t, "ibtrain")
	ibrec, ibserve := tool(t, "ibrec"), tool(t, "ibserve")
	dir := t.TempDir()
	good, model := filepath.Join(dir, "corpus.jsonl"), filepath.Join(dir, "lda.gob")
	runTool(t, ibgen, "-companies", "300", "-seed", "3", "-out", good)
	runTool(t, ibtrain, "-model", "lda", "-topics=3", "-corpus", good, "-out", model, "-seed", "1")
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	rest, ok := strings.CutPrefix(lines[2], `{"id":1,`)
	if !ok {
		t.Fatalf("line 3 of the corpus is %q, want company 1", lines[2])
	}
	lines[2] = `{"id":1000,` + rest
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		bin  string
		args []string
		want string
	}{
		{ibrec, []string{"-corpus", bad, "-company", "5", "-k", "3"}, "company on row 1 has id 1000"},
		{ibserve, []string{"-corpus", bad, "-model", model, "-addr", "localhost:0"}, "line 3: company on row 1 has id 1000"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, tc.bin, tc.args...).CombinedOutput()
		cancel()
		name := filepath.Base(tc.bin)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), tc.want) {
			t.Fatalf("%s: %v, want exit status 1 and %q in its output:\n%s", name, err, tc.want, out)
		}
		if strings.Contains(string(out), "selecting LDA model") {
			t.Fatalf("%s selected a model before refusing the corpus:\n%s", name, out)
		}
	}
}
