// Command bench is the repository's serving benchmark: it builds ibgen,
// ibtrain, ibserve and ibrouter from the checkout it runs in, makes one
// corpus and one LDA model, and drives the built servers over HTTP from this
// one process on four workloads. See README.md in this directory.
//
// Usage, from the root of the checkout:
//
//	go run -C bench .                                  # every workload, both phases
//	go run -C bench . --workload scan-closed --seed 7 --seconds 20 --trace 0
//	go run -C bench . -selfcheck                       # A/A: two sets of runs of the same code
//
// With --workload, the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run: scan-closed | ann-closed | mix-open | router-closed | all")
		seed         = flag.Int64("seed", 1, "seed of the request streams")
		seconds      = flag.Int("seconds", 20, "length of the measured span (the traced phase measures half of it untraced)")
		trace        = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run and layer probe, per-layer metrics")
		selfcheck    = flag.Bool("selfcheck", false, "run two interleaved sets of timed runs of this code and compare them (A/A)")
		companies    = flag.Int("companies", 100000, "corpus size (the paper's 860000 is an out-of-band option)")
		keepwarm     = flag.Bool("keepwarm", false, "internal: what the benchmark starts beside an open-loop span (warm.go)")
	)
	flag.Parse()
	if *keepwarm {
		return keepWarmChild()
	}
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 || *companies < probeCount {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	var selected []workload
	if *workloadName == "all" {
		selected = workloads
	} else if wl, ok := findWorkload(*workloadName); ok {
		selected = []workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env, cleanup, err := setup(ctx, *companies)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer cleanup()

	if *selfcheck {
		return selfCheck(ctx, env, selected, options{seed: *seed, seconds: *seconds})
	}
	single := *workloadName != "all"
	code := 0
	for _, wl := range selected {
		// Without --workload both phases run, the timed one first.
		phases := []bool{false, true}
		if single {
			phases = []bool{*trace == 1}
		}
		for _, traced := range phases {
			res, err := runWorkload(ctx, env, wl, options{seed: *seed, seconds: *seconds, trace: traced})
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
				return 1
			}
			if err := report(env, res, single); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// setup finds the checkout, builds the binaries, makes or reuses the
// artefacts and creates this process's scratch directory.
func setup(ctx context.Context, companies int) (*environment, func(), error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, nil, err
	}
	// `go run -C bench .` starts the program in bench/; `go run ./bench`
	// style invocations from a parent module would start it in the root.
	root := cwd
	if _, err := os.Stat(filepath.Join(root, "cmd", "ibserve")); err != nil {
		root = filepath.Dir(cwd)
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "ibserve")); err != nil {
		return nil, nil, errors.New("run from a checkout of the repository (cmd/ibserve not found)")
	}
	build := filepath.Join(root, ".bench_build")
	env := &environment{
		root:   root,
		binDir: filepath.Join(build, "bin"),
		outDir: filepath.Join(root, "bench", "out"),
	}
	for _, d := range []string{env.outDir, filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, err
		}
	}
	if err := buildBinaries(ctx, root, env.binDir); err != nil {
		return nil, nil, err
	}
	artDir := filepath.Join(build, "artefacts", fmt.Sprintf("n%d", companies))
	if env.art, err = ensureArtefacts(ctx, env.binDir, artDir, companies); err != nil {
		return nil, nil, err
	}
	if env.workDir, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, nil, err
	}
	return env, func() { _ = os.RemoveAll(env.workDir) }, nil
}

// provenance says where and from what a report was measured.
type provenance struct {
	NProc        int        `json:"nproc"`
	GOMAXPROCS   int        `json:"gomaxprocs"`
	GoVersion    string     `json:"go_version"`
	GitCommit    string     `json:"git_commit"`
	Seed         int64      `json:"seed"`
	Seconds      int        `json:"seconds"`
	Companies    int        `json:"companies"`
	CorpusSHA256 string     `json:"corpus_sha256"`
	ModelSHA256  string     `json:"model_sha256"`
	ArtefactCmds [][]string `json:"artefact_cmdlines"`
}

func provenanceOf(env *environment, opt options) provenance {
	commit := "unknown" // the checkout need not be a git repository
	if out, err := exec.Command("git", "-C", env.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	m := env.art.meta
	return provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitCommit: commit,
		Seed: opt.seed, Seconds: opt.seconds, Companies: m.Corpus.Companies,
		CorpusSHA256: m.CorpusSHA256, ModelSHA256: m.ModelSHA256, ArtefactCmds: m.Cmdlines,
	}
}

// report prints the run for people, writes the full report file and, for a
// single-workload run, ends with the one-line JSON result.
func report(env *environment, res *runResult, resultLine bool) error {
	defs, phase := endToEnd, "trace0"
	if res.Trace {
		defs, phase = perLayer, "trace1"
	}
	st := res.Span
	fmt.Printf("== %s (%s)  seed %d  %d s  stream %s… (%d requests)\n", res.Workload, phase,
		res.Provenance.Seed, res.Provenance.Seconds, res.StreamSHA[:12], res.StreamLen)
	fmt.Printf("   requests: attempted %d  succeeded %d  failed %d  (span %d, recall probes %d, the rest traced)\n",
		res.Attempted, res.Attempted-res.Failed, res.Failed, st.Attempted, res.Probes)
	fmt.Printf("   samples: %d per window at least (p99 of a window has %d beyond it)\n", st.MinWindowOK, st.MinWindowOK/100)
	fmt.Printf("   host: ran %.3f times slower than its best; as the clock read: qps %.1f  p50 %.3f ms  p99 %.3f ms; %d requests behind %d host stalls left out of the percentiles\n",
		st.Slowdown, st.RawQPS, st.RawP50ms, st.RawP99ms, st.Stalled, st.HostStalls)
	if len(res.BootsS) > 1 {
		fmt.Printf("   boots_s: %.3f\n", res.BootsS)
	}
	for _, d := range defs {
		fmt.Printf("   %-30s %14.6g %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	for _, e := range res.Errors {
		fmt.Printf("   INCORRECT: %s\n", e)
	}

	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(env.outDir, fmt.Sprintf("report_%s_%s.json", res.Workload, phase))
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if !resultLine {
		return nil
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
