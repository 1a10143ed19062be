package hiddenlayer

// The harness of the root package's end-to-end tests, which drive the built
// binaries. One go build links all seven cmd/ binaries on first use; the
// 200-company corpus and its LDA-3 model are made once and shared read-only;
// every long-running process starts through startProc; fetch and metric are
// the one HTTP helper and the one metric reader.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// toolBuild is one `go build -o <dir>/ <pattern>`, run at most once.
type toolBuild struct {
	pattern string
	once    sync.Once
	dir     string
	err     error
}

// tools holds every cmd/ binary once the first test has asked for one. Its
// directory also holds the shared fixture; TestMain removes it.
var tools = &toolBuild{pattern: "./cmd/..."}

func TestMain(m *testing.M) {
	code := m.Run()
	if tools.dir != "" {
		if testing.Short() && code == 0 {
			fmt.Fprintln(os.Stderr, "FAIL: a -short run built the cmd/ binaries")
			code = 1
		}
		os.RemoveAll(tools.dir)
	}
	os.Exit(code)
}

// path returns the path of the built binary name, building the whole set on
// the first call. A failed build fails this and every later caller with the
// build's output.
func (b *toolBuild) path(t testing.TB, name string) string {
	t.Helper()
	b.once.Do(func() {
		if b.dir, b.err = os.MkdirTemp("", "hiddenlayer-tools-"); b.err != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", b.dir+string(filepath.Separator), b.pattern).CombinedOutput()
		if err != nil {
			b.err = fmt.Errorf("go build %s: %v\n%s", b.pattern, err, out)
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

// tool returns the path of one built cmd/ binary. It skips the test in
// -short mode, so a -short run never builds one.
func tool(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("needs the built cmd/ binaries; skipped in -short mode")
	}
	return tools.path(t, name)
}

// run runs bin to completion and returns its combined output.
func run(bin string, args ...string) (string, error) {
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out), nil
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := run(bin, args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// writeModel writes the corpus of `ibgen -companies <companies> -seed 9` and
// its `ibtrain -model lda -topics=3 -seed 1` model into dir.
func writeModel(t *testing.T, dir string, companies int) (corpusPath, modelPath string, err error) {
	t.Helper()
	ibgen, ibtrain := tool(t, "ibgen"), tool(t, "ibtrain")
	corpusPath = filepath.Join(dir, "corpus.jsonl")
	modelPath = filepath.Join(dir, "lda.gob")
	if _, err = run(ibgen, "-companies", strconv.Itoa(companies), "-seed", "9", "-out", corpusPath); err != nil {
		return "", "", err
	}
	_, err = run(ibtrain, "-model", "lda", "-topics=3", "-corpus", corpusPath, "-out", modelPath, "-seed", "1")
	return corpusPath, modelPath, err
}

var fixture struct {
	once          sync.Once
	corpus, model string
	err           error
}

// sharedFixture returns writeModel's 200-company corpus and model, made once
// per test binary. Tests share the files: one that rewrites a file works on
// its own copy.
func sharedFixture(t *testing.T) (corpusPath, modelPath string) {
	t.Helper()
	// A failed build must fail the test here: a Fatal inside the Once would
	// leave it done with no files for every later caller.
	tool(t, "ibgen")
	fixture.once.Do(func() {
		dir := filepath.Join(tools.dir, "fixture")
		if fixture.err = os.Mkdir(dir, 0o755); fixture.err == nil {
			fixture.corpus, fixture.model, fixture.err = writeModel(t, dir, 200)
		}
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.corpus, fixture.model
}

// proc is one started binary and the addresses it announced.
type proc struct {
	cmd    *exec.Cmd
	base   string // http://host:port of the query listener ("serving on ")
	debug  string // http://host:port of the debug listener ("debug on "), "" if none
	stderr bytes.Buffer
	done   chan struct{} // closed when the process has exited; err and stderr are final then
	err    error
}

// startProc starts bin and reads the "debug on " and "serving on " lines it
// prints to stdout. The process is killed at cleanup, and its stderr logged
// if the test failed.
func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	stdout, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stdout = w
	p.cmd.Stderr = &p.stderr
	err = p.cmd.Start()
	w.Close()
	if err != nil {
		stdout.Close()
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.kill()
		if t.Failed() && p.stderr.Len() > 0 {
			t.Logf("%s %v stderr:\n%s", filepath.Base(bin), args, p.stderr.String())
		}
	})
	sc := bufio.NewScanner(stdout)
	for p.base == "" && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if addr, ok := strings.CutPrefix(line, "debug on "); ok {
			p.debug = "http://" + addr
		} else if addr, ok := strings.CutPrefix(line, "serving on "); ok {
			p.base = "http://" + addr
		}
	}
	// Keep reading, so the process never blocks on a full stdout pipe.
	go func() {
		_, _ = io.Copy(io.Discard, stdout)
		stdout.Close()
	}()
	if p.base == "" {
		t.Fatalf("%s never announced %q (stdout closed)", filepath.Base(bin), "serving on ")
	}
	return p
}

// kill stops the process and waits for it to exit.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// wait waits up to d for the process to exit and returns its exit error.
func (p *proc) wait(t *testing.T, d time.Duration) error {
	t.Helper()
	select {
	case <-p.done:
		return p.err
	case <-time.After(d):
		t.Fatalf("%s did not exit within %s", filepath.Base(p.cmd.Path), d)
		return nil
	}
}

// metrics scrapes the process's Prometheus exposition.
func (p *proc) metrics(t *testing.T) string {
	t.Helper()
	resp, body := fetch(t, p.debug+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/metrics: status %d", p.debug, resp.StatusCode)
	}
	return string(body)
}

// metric reads one series' value from a Prometheus text exposition.
func metric(t *testing.T, exposition, name string) float64 {
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

// fetch GETs url when payload is nil and POSTs payload as JSON otherwise. It
// returns the response, whose body it has read and closed, and that body.
func fetch(t *testing.T, url string, payload any) (*http.Response, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if payload == nil {
		resp, err = http.Get(url)
	} else {
		raw, merr := json.Marshal(payload)
		if merr != nil {
			t.Fatal(merr)
		}
		resp, err = http.Post(url, "application/json", bytes.NewReader(raw))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestToolBuildFailure pins the harness's failure mode: when go build fails,
// every test that asks for a binary fails with the one build's output instead
// of running a path that does not exist.
func TestToolBuildFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build; skipped in -short mode")
	}
	b := &toolBuild{pattern: "./cmd/nosuchtool"}
	t.Cleanup(func() { os.RemoveAll(b.dir) })
	var first string
	for i := 0; i < 2; i++ {
		rec := &fatalRecorder{TB: t}
		var got string
		done := make(chan struct{})
		go func() {
			defer close(done)
			got = b.path(rec, "ibserve")
		}()
		<-done
		if got != "" || rec.msg == "" {
			t.Fatalf("caller %d: path %q, fatal %q; want a fatal and no path", i, got, rec.msg)
		}
		head, output, _ := strings.Cut(rec.msg, "\n")
		if !strings.HasPrefix(head, "go build ./cmd/nosuchtool: ") || !strings.Contains(output, "nosuchtool") {
			t.Fatalf("caller %d failed with %q, want go build's own output", i, rec.msg)
		}
		if i == 0 {
			first = rec.msg
		} else if rec.msg != first {
			t.Fatalf("second caller failed with %q, want the first build's %q", rec.msg, first)
		}
	}
}

// fatalRecorder is a testing.TB whose Fatal records its message and ends the
// calling goroutine, as testing.T's does.
type fatalRecorder struct {
	testing.TB
	msg string
}

func (r *fatalRecorder) Helper() {}

func (r *fatalRecorder) Fatal(args ...any) {
	r.msg = fmt.Sprint(args...)
	runtime.Goexit()
}
