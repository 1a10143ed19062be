package hiddenlayer

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/proctest"
	"repro/internal/trace"
)

// TestOutputFilesDecodeWithReadableMode runs the binaries' JSON outputs,
// ibtrain -metrics-out and -trace-out and ibeval -metrics-out, twice each:
// into fresh paths, which must come out 0644 (not the 0600 of a temp file
// renamed into place), and over files of mode 0640, which must keep it. Each
// file must decode, the trace into trace.TraceJSON.
func TestOutputFilesDecodeWithReadableMode(t *testing.T) {
	ibtrain, ibeval := tools.Path(t, "ibtrain"), tools.Path(t, "ibeval")
	corpusPath, _ := sharedFixture(t)
	dir := t.TempDir()
	trainMetrics := filepath.Join(dir, "m.json")
	traceOut := filepath.Join(dir, "t.json")
	evalMetrics := filepath.Join(dir, "eval.json")
	runs := func() {
		proctest.Run(t, ibtrain, "-model", "lda", "-topics=3", "-corpus", corpusPath, "-seed", "1",
			"-out", filepath.Join(dir, "lda.gob"), "-metrics-out", trainMetrics, "-trace-out", traceOut)
		proctest.Run(t, ibeval, "-exp", "seqtest", "-corpus", corpusPath, "-metrics-out", evalMetrics)
	}
	check := func(path string, want os.FileMode, v any) {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Mode().Perm(); got != want {
			t.Errorf("%s: mode %o, want %o", filepath.Base(path), got, want)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v\n%.500s", filepath.Base(path), err, raw)
		}
	}
	checkAll := func(want os.FileMode) {
		t.Helper()
		var tm, em obs.Snapshot
		check(trainMetrics, want, &tm)
		check(evalMetrics, want, &em)
		if len(tm.Counters) == 0 || len(em.Counters) == 0 {
			t.Fatalf("metrics snapshots without counters: ibtrain %d, ibeval %d", len(tm.Counters), len(em.Counters))
		}
		var tj trace.TraceJSON
		check(traceOut, want, &tj)
		if tj.Name != "ibtrain.train" || tj.Root == nil || tj.Spans < 2 {
			t.Fatalf("trace %q with %d spans, want the ibtrain.train tree", tj.Name, tj.Spans)
		}
	}

	runs()
	checkAll(0o644)
	for _, path := range []string{trainMetrics, traceOut, evalMetrics} {
		if err := os.Chmod(path, 0o640); err != nil {
			t.Fatal(err)
		}
	}
	runs()
	checkAll(0o640)
}
