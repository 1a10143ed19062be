package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// binaries are the programs the benchmark drives, built from the checkout it
// runs in.
var binaries = []string{"ibgen", "ibtrain", "ibserve", "ibrouter"}

// buildBinaries compiles the four programs into <root>/.bench_build/bin. The
// go tool skips what is up to date, so every run after the first pays about
// a second. Build time is part of no metric.
func buildBinaries(ctx context.Context, root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	// No VCS stamp: the same source then gives the same binaries, commit or
	// not, and the artefact cache keyed on them holds.
	args := []string{"build", "-buildvcs=false", "-o", binDir + string(filepath.Separator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return nil
}

// proc is one serving process the benchmark started.
type proc struct {
	name    string // "ibserve", "shard0", "ibrouter", …
	cmd     *exec.Cmd
	cmdline []string
	addr    string        // scraped from the "serving on" line
	debug   string        // scraped from the "debug on" line
	boot    time.Duration // process start → first 200 on /readyz
	stderr  *bytes.Buffer
	exited  chan struct{}
}

// startProc starts a binary with -addr/-debug-addr on port 0, scrapes the two
// bound addresses from its standard output and polls /readyz until it
// answers 200. The child dies with the benchmark (Pdeathsig) even when the
// benchmark is killed outright.
func startProc(ctx context.Context, name, bin, dir string, args ...string) (*proc, error) {
	full := append([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-quiet"}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{name: name, cmd: cmd, cmdline: append([]string{filepath.Base(bin)}, full...),
		stderr: &bytes.Buffer{}, exited: make(chan struct{})}
	cmd.Stderr = p.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	started := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	lines := make(chan string, 2) // the two address lines; later output is drained unread
	go func() {
		defer close(p.exited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		_ = cmd.Wait()
	}()
	fail := func(err error) (*proc, error) {
		p.stop()
		return nil, fmt.Errorf("%s: %w; stderr: %s", name, err, tail(p.stderr.String(), 600))
	}
	deadline := time.After(120 * time.Second)
	for p.addr == "" {
		select {
		case line := <-lines:
			if a, ok := strings.CutPrefix(line, "serving on "); ok {
				p.addr = a
			} else if a, ok := strings.CutPrefix(line, "debug on "); ok {
				p.debug = a
			}
		case <-p.exited:
			return fail(errors.New("exited before serving"))
		case <-deadline:
			return fail(errors.New("no \"serving on\" line within 120s"))
		case <-ctx.Done():
			return fail(ctx.Err())
		}
	}
	for {
		resp, err := adminClient.Get("http://" + p.addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-p.exited:
			return fail(errors.New("exited before ready"))
		case <-deadline:
			return fail(errors.New("not ready within 120s"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	p.boot = time.Since(started)
	return p, nil
}

// stop ends the process and waits until it has gone: SIGTERM first, so the
// drain path runs, SIGKILL if that takes more than two seconds.
func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(2 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

func tail(s string, n int) string {
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

// fleet is the set of serving processes of one workload: one ibserve, or two
// shards and the router in front of them. entry is the process the load
// generator talks to.
type fleet struct {
	procs []*proc
	entry *proc
	boot  time.Duration // sum of the sequential boots
}

func (f *fleet) stop() {
	if f == nil {
		return
	}
	// Stop the router before its shards, so it never sees one vanish.
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

// serverSpec says which fleet a workload runs against.
type serverSpec struct {
	ann    bool // ibserve -ann
	shards int  // 0: one ibserve; n: n shards behind ibrouter
}

// bootFleet starts the workload's serving processes one after another, each
// only once the one before answers /readyz: booting them together would make
// them fight for the two cores and time the fight. extra is appended to every
// process's flags (the traced run passes -trace -trace-sample 1).
func bootFleet(ctx context.Context, env *environment, spec serverSpec, extra ...string) (*fleet, error) {
	f := &fleet{}
	start := func(name, bin string, args ...string) error {
		p, err := startProc(ctx, name, filepath.Join(env.binDir, bin), env.workDir, append(args, extra...)...)
		if err != nil {
			f.stop()
			return err
		}
		f.procs = append(f.procs, p)
		f.entry = p // the last one started: the single server, or the router
		f.boot += p.boot
		return nil
	}
	serveArgs := []string{"-corpus", env.art.corpusPath, "-model", env.art.modelPath}
	if spec.ann {
		serveArgs = append(serveArgs, "-ann")
	}
	if spec.shards == 0 {
		return f, start("ibserve", "ibserve", serveArgs...)
	}
	var addrs []string
	for i := 0; i < spec.shards; i++ {
		shard := append(append([]string{}, serveArgs...), "-shard", fmt.Sprintf("%d/%d", i, spec.shards))
		if err := start(fmt.Sprintf("shard%d", i), "ibserve", shard...); err != nil {
			return nil, err
		}
		addrs = append(addrs, f.entry.addr)
	}
	return f, start("ibrouter", "ibrouter", "-shards", strings.Join(addrs, ","))
}

// cmdlines lists the exact command line of every process of the fleet.
func (f *fleet) cmdlines() [][]string {
	var out [][]string
	for _, p := range f.procs {
		out = append(out, p.cmdline)
	}
	return out
}

// procUsage is what /proc says about one process.
type procUsage struct {
	userS, sysS float64 // CPU seconds so far
	hwmMB       float64 // peak resident set (VmHWM)
}

// clockTick is USER_HZ, which Linux fixes at 100 for every architecture Go
// runs on.
const clockTick = 100

func readProcUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name is in parentheses and may hold spaces; the numbered
	// fields start after the last ')'. utime and stime are fields 14 and 15.
	rest := string(stat[bytes.LastIndexByte(stat, ')')+1:])
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return u, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	u.userS, u.sysS = ut/clockTick, st/clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return u, fmt.Errorf("/proc/%d/status: bad VmHWM %q", pid, v)
			}
			u.hwmMB = kb / 1024
		}
	}
	return u, nil
}

// usage sums readProcUsage over the fleet.
func (f *fleet) usage() (procUsage, error) {
	var sum procUsage
	for _, p := range f.procs {
		u, err := readProcUsage(p.cmd.Process.Pid)
		if err != nil {
			return sum, err
		}
		sum.userS += u.userS
		sum.sysS += u.sysS
		sum.hwmMB += u.hwmMB
	}
	return sum, nil
}

// metricsSnapshot is the part of a binary's /metrics.json the benchmark
// reads: counters, and the sum and count of histograms.
type metricsSnapshot struct {
	Counters   map[string]float64 `json:"counters"`
	Histograms map[string]struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

// getJSON fetches a document from a debug listener.
func getJSON(url string, v any) error {
	resp, err := debugClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape sums /metrics.json over the fleet's processes. Summing is right for
// every series read here: a counter name belongs either to ibserve (summed
// over the shards) or to ibrouter.
func (f *fleet) scrape() (flatMetrics, error) {
	sum := flatMetrics{}
	for _, p := range f.procs {
		var m metricsSnapshot
		if err := getJSON("http://"+p.debug+"/metrics.json", &m); err != nil {
			return nil, fmt.Errorf("scraping %s: %w", p.name, err)
		}
		for k, v := range m.Counters {
			sum[k] += v
		}
		for k, h := range m.Histograms {
			sum[k+":count"] += h.Count
			sum[k+":sum"] += h.Sum
		}
	}
	return sum, nil
}

// flatMetrics maps a counter name, or a histogram name plus ":count" or
// ":sum", to its value.
type flatMetrics map[string]float64

// sub returns m − before, key by key.
func (m flatMetrics) sub(before flatMetrics) flatMetrics {
	d := flatMetrics{}
	for k, v := range m {
		d[k] = v - before[k]
	}
	return d
}

// sumPrefixSuffix adds up every key that starts with prefix and ends with
// suffix, as in router_shard*_fanout_latency_seconds:count.
func (m flatMetrics) sumPrefixSuffix(prefix, suffix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			s += v
		}
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
