package hiddenlayer

// Integration tests for ibtrain's crash-safe training: interrupt a run with
// SIGINT mid-training, verify a valid checkpoint lands on disk and the
// existing -out file is untouched, then -resume and verify the final model
// is byte-identical to an uninterrupted run with the same corpus and seed;
// and interrupt a model selection, which has nothing to checkpoint.

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/proctest"
)

func TestTrainInterruptAndResume(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("relies on SIGINT delivery")
	}
	ibgen := tools.Path(t, "ibgen")
	ibtrain := tools.Path(t, "ibtrain")
	dir := t.TempDir()

	corpusPath := filepath.Join(dir, "corpus.jsonl")
	proctest.Run(t, ibgen, "-companies", "150", "-seed", "3", "-out", corpusPath)

	args := []string{"-model", "lstm", "-layers", "1", "-hidden", "8",
		"-epochs", "25", "-corpus", corpusPath, "-seed", "7"}

	// Reference: the same schedule run to completion.
	straightPath := filepath.Join(dir, "straight.gob")
	proctest.Run(t, ibtrain, append(args, "-out", straightPath)...)
	straight, err := os.ReadFile(straightPath)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run. Pre-populate -out with a sentinel: training must not
	// clobber it before it has a model to write.
	outPath := filepath.Join(dir, "interrupted.gob")
	ckptPath := filepath.Join(dir, "interrupted.ckpt")
	const sentinel = "previous model bytes"
	if err := os.WriteFile(outPath, []byte(sentinel), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(ibtrain, append(args,
		"-out", outPath, "-checkpoint", ckptPath, "-checkpoint-every", "1")...)
	var output bytes.Buffer
	cmd.Stdout = &output
	cmd.Stderr = &output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint file is renamed into place after the first epoch, so
	// once it exists the run is provably mid-training; interrupt it then.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckptPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no checkpoint appeared; output so far:\n%s", output.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("interrupted run should exit cleanly, got %v\n%s", err, output.String())
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("interrupted run did not exit; output:\n%s", output.String())
	}
	if !strings.Contains(output.String(), "training interrupted") {
		t.Fatalf("expected interruption notice, got:\n%s", output.String())
	}
	if got, err := os.ReadFile(outPath); err != nil || string(got) != sentinel {
		t.Fatalf("interrupted run touched -out (err %v, content %q)", err, got)
	}

	// Resume from the checkpoint; the model family and hyperparameters come
	// from the checkpoint file itself.
	resumedPath := filepath.Join(dir, "resumed.gob")
	out := proctest.Run(t, ibtrain, "-resume", ckptPath,
		"-corpus", corpusPath, "-seed", "7", "-out", resumedPath)
	if !strings.Contains(out, "model written") {
		t.Fatalf("resume output: %s", out)
	}
	resumed, err := os.ReadFile(resumedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(straight, resumed) {
		t.Fatal("resumed model differs from the uninterrupted run")
	}
}

// TestSelectionInterrupt: SIGINT during ibtrain -topics 2,3,4 abandons the
// selection. Selection writes no checkpoint, so the run must not claim one;
// it exits 1, says nothing was written, and leaves -out alone.
func TestSelectionInterrupt(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("relies on SIGINT delivery")
	}
	ibgen, ibtrain := tools.Path(t, "ibgen"), tools.Path(t, "ibtrain")
	dir := t.TempDir()
	corpusPath, outPath := filepath.Join(dir, "corpus.jsonl"), filepath.Join(dir, "selected.gob")
	proctest.Run(t, ibgen, "-companies", "5000", "-seed", "3", "-out", corpusPath)

	cmd := exec.Command(ibtrain, "-topics", "2,3,4", "-progress", "-corpus", corpusPath, "-out", outPath)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The first progress line is the end of the first of 3 x 200 sweeps:
	// the selection is under way, so interrupt it then.
	lines := bufio.NewScanner(stderr)
	var logged strings.Builder
	for lines.Scan() && !strings.Contains(lines.Text(), "progress model=lda") {
		logged.WriteString(lines.Text() + "\n")
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		cmd.Wait()
		t.Fatalf("signalling ibtrain: %v\n%s%s", err, stdout.String(), logged.String())
	}
	rest, _ := io.ReadAll(stderr)
	err = cmd.Wait()
	out := stdout.String() + logged.String() + string(rest)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("interrupted selection: %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(out, "nothing written") || strings.Contains(out, "checkpoint") {
		t.Fatalf("interrupted selection must say nothing was written and claim no checkpoint:\n%s", out)
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatalf("interrupted selection left %s (stat err %v)", outPath, err)
	}
}
