// Package proctest is the process harness of the end-to-end tests: it builds
// the repro/cmd/... binaries once per test binary, starts a serving binary
// and reads the addresses it announces, and reads what a process exposes
// (its metrics, its exported traces). Only _test.go files import it.
package proctest

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// Tools is one `go build -o <dir>/ <pkgs>` of repro/cmd/... import paths,
// run at most once per test binary, on the first Path call.
type Tools struct {
	pkgs []string
	once sync.Once
	dir  string
	err  error
}

var (
	mu     sync.Mutex
	builds = map[string]*Tools{}
)

// Build returns the build of pkgs, one per set of import paths: callers that
// name the same set share it. Main removes its directory.
func Build(pkgs ...string) *Tools {
	pkgs = slices.Clone(pkgs)
	slices.Sort(pkgs)
	key := strings.Join(pkgs, " ")
	mu.Lock()
	defer mu.Unlock()
	if builds[key] == nil {
		builds[key] = &Tools{pkgs: pkgs}
	}
	return builds[key]
}

// Main runs m's tests, removes every build directory, and fails a -short run
// that built anything: -short must run no binary.
func Main(m *testing.M) {
	code := m.Run()
	mu.Lock()
	defer mu.Unlock()
	for _, b := range builds {
		if b.dir == "" {
			continue
		}
		if testing.Short() && code == 0 {
			fmt.Fprintf(os.Stderr, "FAIL: a -short run built %s\n", strings.Join(b.pkgs, " "))
			code = 1
		}
		os.RemoveAll(b.dir)
	}
	os.Exit(code)
}

// Path returns the path of the built binary name, building the whole set on
// the first call. It skips the test in -short mode, so a -short run never
// builds. A failed build fails this and every later caller with the build's
// output.
func (b *Tools) Path(t testing.TB, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("needs the built cmd/ binaries; skipped in -short mode")
	}
	b.once.Do(func() {
		if b.dir, b.err = os.MkdirTemp("", "proctest-"); b.err != nil {
			return
		}
		args := append([]string{"build", "-o", b.dir + string(filepath.Separator)}, b.pkgs...)
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			b.err = fmt.Errorf("go build %s: %v\n%s", strings.Join(b.pkgs, " "), err, out)
		}
	})
	if b.err != nil {
		t.Fatal(b.err)
	}
	bin := filepath.Join(b.dir, name)
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	return bin
}

// Run runs bin to completion and returns its combined output; a failed run
// fails the test with that output.
func Run(t testing.TB, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// Proc is one started binary and the addresses it announced.
type Proc struct {
	Cmd    *exec.Cmd
	Base   string       // http://host:port of the query listener ("serving on ")
	Debug  string       // http://host:port of the debug listener ("debug on "), "" if none
	Stderr bytes.Buffer // final once the process has exited
	done   chan struct{}
	err    error
}

// bootDeadline bounds how long Start waits for "serving on ": well above the
// slowest boot under -race, so only a binary that hangs in boot reaches it.
const bootDeadline = 60 * time.Second

// Start starts bin and reads the "debug on " and "serving on " lines it
// prints to stdout, then keeps draining stdout. A process that exits, or is
// still silent after bootDeadline, before announcing "serving on " is killed
// and fails the test with its stderr. Otherwise it is killed at cleanup, and
// its stderr logged if the test failed.
func Start(t testing.TB, bin string, args ...string) *Proc {
	t.Helper()
	return start(t, bootDeadline, bin, args...)
}

func start(t testing.TB, deadline time.Duration, bin string, args ...string) *Proc {
	t.Helper()
	stdout, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	p := &Proc{Cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.Cmd.Stdout = w
	p.Cmd.Stderr = &p.Stderr
	err = p.Cmd.Start()
	w.Close()
	if err != nil {
		stdout.Close()
		t.Fatal(err)
	}
	go func() {
		p.err = p.Cmd.Wait()
		close(p.done)
	}()
	// Killing the process closes its end of the pipe, which ends the scan.
	timer := time.AfterFunc(deadline, func() { _ = p.Cmd.Process.Kill() })
	sc := bufio.NewScanner(stdout)
	for p.Base == "" && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if addr, ok := strings.CutPrefix(line, "debug on "); ok {
			p.Debug = "http://" + addr
		} else if addr, ok := strings.CutPrefix(line, "serving on "); ok {
			p.Base = "http://" + addr
		}
	}
	late := !timer.Stop()
	// Keep reading, so the process never blocks on a full stdout pipe.
	go func() {
		_, _ = io.Copy(io.Discard, stdout)
		stdout.Close()
	}()
	if p.Base == "" || late {
		p.Kill()
		why := "stdout closed"
		if late {
			why = fmt.Sprintf("killed after %s", deadline)
		}
		t.Fatalf("%s %v never announced %q (%s); stderr:\n%s", filepath.Base(bin), args, "serving on ", why, p.Stderr.String())
	}
	t.Cleanup(func() {
		p.Kill()
		if t.Failed() && p.Stderr.Len() > 0 {
			t.Logf("%s %v stderr:\n%s", filepath.Base(bin), args, p.Stderr.String())
		}
	})
	return p
}

// Kill stops the process and waits for it to exit. It may be called any
// number of times, also after the process has exited on its own.
func (p *Proc) Kill() {
	_ = p.Cmd.Process.Kill()
	<-p.done
}

// Wait waits up to d for the process to exit and returns its exit error.
func (p *Proc) Wait(t testing.TB, d time.Duration) error {
	t.Helper()
	select {
	case <-p.done:
		return p.err
	case <-time.After(d):
		t.Fatalf("%s did not exit within %s", filepath.Base(p.Cmd.Path), d)
		return nil
	}
}

// Metrics scrapes the process's Prometheus exposition off its debug listener.
func (p *Proc) Metrics(t testing.TB) string {
	t.Helper()
	resp, err := http.Get(p.Debug + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/metrics: status %d", p.Debug, resp.StatusCode)
	}
	return string(body)
}

// Metric reads one series' value from a Prometheus text exposition.
func Metric(t testing.TB, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// Spans walks an exported span tree depth-first and returns its spans named
// name.
func Spans(root *trace.SpanJSON, name string) []*trace.SpanJSON {
	var out []*trace.SpanJSON
	if root == nil {
		return out
	}
	if root.Name == name {
		out = append(out, root)
	}
	for _, c := range root.Children {
		out = append(out, Spans(c, name)...)
	}
	return out
}
