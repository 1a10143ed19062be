package hiddenlayer

// End-to-end smoke tests for the command-line tools: each binary is driven
// the way a user would drive it, against a real corpus file.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/proctest"
)

func TestCommandLineTools(t *testing.T) {
	ibgen := tools.Path(t, "ibgen")
	ibtrain := tools.Path(t, "ibtrain")
	ibeval := tools.Path(t, "ibeval")
	dir := t.TempDir()

	corpusPath := filepath.Join(dir, "corpus.jsonl")

	// ibgen: generate and validate a corpus.
	out := proctest.Run(t, ibgen, "-companies", "300", "-seed", "3", "-out", corpusPath)
	if !strings.Contains(out, "300 companies") {
		t.Fatalf("ibgen output: %s", out)
	}
	if _, err := os.Stat(corpusPath); err != nil {
		t.Fatal("corpus file missing")
	}

	// ibgen -sites: the aggregation path.
	sitesCorpus := filepath.Join(dir, "sites.jsonl")
	out = proctest.Run(t, ibgen, "-companies", "100", "-seed", "4", "-sites", "-out", sitesCorpus)
	if !strings.Contains(out, "100 companies") {
		t.Fatalf("ibgen -sites output: %s", out)
	}

	// ibtrain: every model family it writes trains and persists.
	for _, tc := range []struct {
		model string
		extra []string
	}{
		{"lda", []string{"-topics=3"}},
		{"lstm", []string{"-hidden=8", "-epochs=1"}},
		{"gru", []string{"-hidden=8", "-epochs=1"}},
	} {
		modelPath := filepath.Join(dir, tc.model+".gob")
		args := append([]string{"-model", tc.model, "-corpus", corpusPath, "-out", modelPath, "-seed", "1"}, tc.extra...)
		out = proctest.Run(t, ibtrain, args...)
		if !strings.Contains(out, "test perplexity") || !strings.Contains(out, "model written") {
			t.Fatalf("ibtrain %s output: %s", tc.model, out)
		}
		if fi, err := os.Stat(modelPath); err != nil || fi.Size() == 0 {
			t.Fatalf("%s model not persisted", tc.model)
		}
	}
	// A family whose file no binary reads is not a -model value; the name
	// is checked before the corpus is read.
	bad, err := exec.Command(ibtrain, "-model", "chh", "-corpus", filepath.Join(dir, "missing.jsonl")).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(bad), `unknown model "chh"`) {
		t.Fatalf("ibtrain -model chh: err %v, want exit 2 naming the model\n%s", err, bad)
	}

	// ibtrain -topics 2,3,4: the model SelectLDA picks in process, byte for
	// byte, and one validation perplexity line per K.
	selPath := filepath.Join(dir, "selected.gob")
	out = proctest.Run(t, ibtrain, "-topics", "2,3,4", "-corpus", corpusPath, "-out", selPath, "-seed", "1")
	for _, k := range []string{"2", "3", "4"} {
		if !strings.Contains(out, "LDA"+k+" validation perplexity: ") {
			t.Fatalf("ibtrain -topics 2,3,4 prints no validation perplexity for K=%s:\n%s", k, out)
		}
	}
	c, err := LoadCorpus(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectLDA(c, []int{2, 3, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, fmt.Sprintf("selected LDA%d:", sel.Model.K)) {
		t.Fatalf("ibtrain -topics 2,3,4 did not report selecting LDA%d:\n%s", sel.Model.K, out)
	}
	var want bytes.Buffer
	if err := sel.Model.Save(&want); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(selPath); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("ibtrain -topics 2,3,4 wrote %d bytes (err %v), not the %d bytes of SelectLDA's model",
			len(got), err, want.Len())
	}

	// ibeval: one fast experiment on the generated corpus.
	out = proctest.Run(t, ibeval, "-exp", "seqtest", "-scale", "quick", "-corpus", corpusPath)
	if !strings.Contains(out, "Sequentiality test") {
		t.Fatalf("ibeval output: %s", out)
	}
	// A mistyped -exp is rejected before the corpus is touched: the missing
	// corpus file must not be what the run complains about.
	bad, err = exec.Command(ibeval, "-exp", "fig33", "-corpus", filepath.Join(dir, "missing.jsonl")).CombinedOutput()
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(bad), `unknown experiment "fig33"`) {
		t.Fatalf("ibeval -exp fig33: err %v, want exit 2 naming the experiment\n%s", err, bad)
	}
}

// TestBinariesRefuseIDOffRow: answers name companies by row, so a corpus
// whose line 3 (row 1) carries id 1000 is refused by ibserve while it
// decodes the file, before any expensive boot work; it exits 1 naming the
// line and the row.
func TestBinariesRefuseIDOffRow(t *testing.T) {
	ibgen, ibtrain := tools.Path(t, "ibgen"), tools.Path(t, "ibtrain")
	ibserve := tools.Path(t, "ibserve")
	dir := t.TempDir()
	good, model := filepath.Join(dir, "corpus.jsonl"), filepath.Join(dir, "lda.gob")
	proctest.Run(t, ibgen, "-companies", "300", "-seed", "3", "-out", good)
	proctest.Run(t, ibtrain, "-model", "lda", "-topics=3", "-corpus", good, "-out", model, "-seed", "1")
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
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, ibserve, "-corpus", bad, "-model", model, "-addr", "localhost:0").CombinedOutput()
	const want = "line 3: company on row 1 has id 1000"
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), want) {
		t.Fatalf("ibserve: %v, want exit status 1 and %q in its output:\n%s", err, want, out)
	}
}

// TestServeRefusesShardOutOfRange: -shard i/n names partition i of n, so a
// count below one or an index outside [0, n) exits 1 naming the flag before
// any file is read (the corpus here does not exist).
func TestServeRefusesShardOutOfRange(t *testing.T) {
	ibserve := tools.Path(t, "ibserve")
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	for _, spec := range []string{"7/1", "0/0", "0/-3", "3/3", "-1/2"} {
		out, err := exec.Command(ibserve, "-shard", spec, "-corpus", missing, "-addr", "localhost:0").CombinedOutput()
		want := `-shard "` + spec + `": want partition i of n with 0 <= i < n`
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), want) {
			t.Fatalf("ibserve -shard %s: %v, want exit status 1 and %q in its output:\n%s", spec, err, want, out)
		}
	}
}
