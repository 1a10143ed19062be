package proctest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// childEnv, when set, makes the test binary act as a serving binary: "1"
// announces both listeners and exits at once, "hang" logs to stderr and then
// hangs in boot without announcing.
const childEnv = "PROCTEST_CHILD"

func TestMain(m *testing.M) {
	switch os.Getenv(childEnv) {
	case "1":
		fmt.Println("debug on 127.0.0.1:2")
		fmt.Println("serving on 127.0.0.1:1")
		os.Exit(0)
	case "hang":
		fmt.Println("debug on 127.0.0.1:2")
		fmt.Fprintln(os.Stderr, "stuck in boot")
		time.Sleep(time.Hour)
		os.Exit(1)
	}
	Main(m)
}

// TestToolBuildFailure pins the harness's failure mode: when go build fails,
// every test that asks for a binary fails with the one build's output instead
// of running a path that does not exist.
func TestToolBuildFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build; skipped in -short mode")
	}
	b := &Tools{pkgs: []string{"repro/cmd/nosuchtool"}}
	t.Cleanup(func() { os.RemoveAll(b.dir) })
	var first string
	for i := 0; i < 2; i++ {
		rec := &fatalRecorder{TB: t}
		var got string
		done := make(chan struct{})
		go func() {
			defer close(done)
			got = b.Path(rec, "ibserve")
		}()
		<-done
		if got != "" || rec.msg == "" {
			t.Fatalf("caller %d: path %q, fatal %q; want a fatal and no path", i, got, rec.msg)
		}
		head, output, _ := strings.Cut(rec.msg, "\n")
		if !strings.HasPrefix(head, "go build repro/cmd/nosuchtool: ") || !strings.Contains(output, "nosuchtool") {
			t.Fatalf("caller %d failed with %q, want go build's own output", i, rec.msg)
		}
		if i == 0 {
			first = rec.msg
		} else if rec.msg != first {
			t.Fatalf("second caller failed with %q, want the first build's %q", rec.msg, first)
		}
	}
}

// fatalRecorder is a testing.TB whose Fatal and Fatalf record their message
// and end the calling goroutine, as testing.T's do.
type fatalRecorder struct {
	testing.TB
	msg string
}

func (r *fatalRecorder) Helper() {}

func (r *fatalRecorder) Fatal(args ...any) {
	r.msg = fmt.Sprint(args...)
	runtime.Goexit()
}

func (r *fatalRecorder) Fatalf(format string, args ...any) {
	r.Fatal(fmt.Sprintf(format, args...))
}

// TestStartReadsAnnouncements: Start returns both announced addresses, and
// Kill returns at once, any number of times, for a process that has already
// exited on its own.
func TestStartReadsAnnouncements(t *testing.T) {
	t.Setenv(childEnv, "1")
	p := Start(t, os.Args[0])
	if p.Debug != "http://127.0.0.1:2" || p.Base != "http://127.0.0.1:1" {
		t.Fatalf("announced debug %q, base %q", p.Debug, p.Base)
	}
	if err := p.Wait(t, time.Minute); err != nil {
		t.Fatalf("child exited with %v", err)
	}
	killed := make(chan struct{})
	go func() {
		p.Kill()
		p.Kill()
		close(killed)
	}()
	select {
	case <-killed:
	case <-time.After(10 * time.Second):
		t.Fatal("Kill of an exited process blocked")
	}
}

// TestStartBootDeadline: a child that never announces "serving on " is
// killed at the boot deadline, and Start fails with its stderr instead of
// waiting for the test binary's -timeout.
func TestStartBootDeadline(t *testing.T) {
	t.Setenv(childEnv, "hang")
	rec := &fatalRecorder{TB: t}
	var p *Proc
	done := make(chan struct{})
	go func() {
		defer close(done)
		p = start(rec, time.Second, os.Args[0])
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("start did not give up on a child that never announced")
	}
	if p != nil || !strings.Contains(rec.msg, "killed after 1s") || !strings.Contains(rec.msg, "stuck in boot") {
		t.Fatalf("start returned %v with fatal %q; want a fatal naming the deadline and the child's stderr", p, rec.msg)
	}
}
