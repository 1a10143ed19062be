package hiddenlayer

// End-to-end test for scatter-gather sharded serving: three ibserve
// processes each holding one hash partition behind an ibrouter. Pins the
// ISSUE's acceptance criteria at the binary level: a fully healthy fan-out
// is byte-identical to one unsharded ibserve, a blackholed shard degrades
// to 200 + "partial": true naming the missing shard, the per-shard breaker
// trips open on the router's /metrics, and an ibload replay against the
// degraded router records the partial responses with a clean
// transport/HTTP error split.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// shardProc is one ibserve (or ibrouter) child process with scraped
// listener addresses.
type shardProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port of the query listener
	debug  string // http://host:port of the debug listener ("" if none)
	stderr *bytes.Buffer
}

// startProc launches bin, scrapes "debug on " (when withDebug) and
// "serving on " from stdout, and registers a kill-on-cleanup.
func startProc(t *testing.T, bin string, withDebug bool, args ...string) *shardProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p := &shardProc{cmd: cmd, stderr: &bytes.Buffer{}}
	cmd.Stderr = p.stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	if withDebug {
		p.debug = "http://" + scrapeAddr(t, sc, "debug on ")
	}
	p.base = "http://" + scrapeAddr(t, sc, "serving on ")
	return p
}

func (p *shardProc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = p.cmd.Wait()
	p.cmd.Process = nil
}

func TestShardedServingIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	ibgen := buildTool(t, dir, "ibgen")
	ibtrain := buildTool(t, dir, "ibtrain")
	ibserve := buildTool(t, dir, "ibserve")
	ibrouter := buildTool(t, dir, "ibrouter")
	ibload := buildTool(t, dir, "ibload")

	corpusPath := filepath.Join(dir, "corpus.jsonl")
	modelPath := filepath.Join(dir, "lda.gob")
	runTool(t, ibgen, "-companies", "200", "-seed", "9", "-out", corpusPath)
	runTool(t, ibtrain, "-model", "lda", "-topics=3", "-corpus", corpusPath,
		"-out", modelPath, "-seed", "1")

	// One unsharded reference server and a 3-shard cluster over the same
	// corpus, model and result count.
	common := []string{"-corpus", corpusPath, "-model", modelPath,
		"-addr", "localhost:0", "-k", "5", "-quiet"}
	ref := startProc(t, ibserve, false, common...)
	shards := make([]*shardProc, 3)
	addrs := make([]string, 3)
	for i := range shards {
		shards[i] = startProc(t, ibserve, false,
			append([]string{"-shard", fmt.Sprintf("%d/3", i)}, common...)...)
		addrs[i] = strings.TrimPrefix(shards[i].base, "http://")
	}
	router := startProc(t, ibrouter, true,
		"-shards", strings.Join(addrs, ","),
		"-addr", "localhost:0", "-debug-addr", "localhost:0",
		"-request-timeout", "600ms",
		"-breaker-threshold", "2", "-breaker-cooldown", "5s",
		"-quiet")

	// The shards really are partitions: each owns a strict subset and the
	// counts add back up to the full corpus.
	var ownedSum int
	for i, sh := range shards {
		var health struct {
			Companies int `json:"companies"`
			Partition *struct {
				Index     int `json:"index"`
				Of        int `json:"of"`
				Companies int `json:"companies"`
			} `json:"partition"`
		}
		code, body := httpGetBody(t, sh.base+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("shard %d /healthz: %d\n%s", i, code, body)
		}
		if err := json.Unmarshal(body, &health); err != nil {
			t.Fatal(err)
		}
		if health.Partition == nil || health.Partition.Index != i || health.Partition.Of != 3 {
			t.Fatalf("shard %d partition health: %+v", i, health.Partition)
		}
		if health.Partition.Companies == 0 || health.Partition.Companies == health.Companies {
			t.Fatalf("shard %d owns %d of %d companies — not a partition",
				i, health.Partition.Companies, health.Companies)
		}
		ownedSum += health.Partition.Companies
	}
	if ownedSum != 200 {
		t.Fatalf("shard ownership sums to %d, want 200", ownedSum)
	}

	// Healthy cluster: every endpoint's merged answer is byte-identical to
	// the unsharded server's, and nothing is marked partial.
	gets := []string{
		"/v1/similar/3",
		"/v1/similar/3?k=2&min_employees=1",
		"/v1/similar/7?k=9&country=US",
		"/v1/recommend/3?peers=15&k=4",
		"/v1/recommend/11",
	}
	for _, path := range gets {
		wantCode, want := httpGetBody(t, ref.base+path)
		resp, err := http.Get(router.base + path)
		if err != nil {
			t.Fatal(err)
		}
		got := readBody(t, resp)
		if resp.StatusCode != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("GET %s diverged from unsharded:\nrouter %d: %s\nref    %d: %s",
				path, resp.StatusCode, got, wantCode, want)
		}
		if resp.Header.Get("X-Partial") != "" {
			t.Fatalf("healthy GET %s marked partial", path)
		}
	}
	posts := []struct {
		path    string
		payload any
	}{
		{"/v1/whitespace", map[string]any{"clients": []int{1, 2, 3}, "k": 4}},
		{"/v1/infer", map[string]any{"owned": []int{0, 4, 7}, "k": 3}},
	}
	for _, p := range posts {
		wantCode, want := httpPostBody(t, ref.base+p.path, p.payload)
		gotCode, got := httpPostBody(t, router.base+p.path, p.payload)
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("POST %s diverged from unsharded:\nrouter %d: %s\nref    %d: %s",
				p.path, gotCode, got, wantCode, want)
		}
	}
	// Client errors pass through the fan-out verbatim.
	if code, _ := httpGetBody(t, router.base+"/v1/similar/99999"); code != http.StatusBadRequest {
		t.Fatalf("unknown id through router: %d, want 400", code)
	}

	// Blackhole shard 1: kill it and rebind its port to an ibserve whose /v1
	// endpoints hang forever (the dead-switch-port failure mode). /readyz and
	// /internal stay live so the router's degradation comes from the breaker
	// and per-shard deadlines, not the readiness probe.
	shard1Addr := addrs[1]
	shards[1].kill(t)
	blackholed := startProc(t, ibserve, false,
		"-shard", "1/3", "-corpus", corpusPath, "-model", modelPath,
		"-addr", shard1Addr, "-k", "5", "-quiet",
		"-chaos-blackhole", "-chaos-path", "/v1")
	if !strings.Contains(blackholed.base, shard1Addr) {
		t.Fatalf("blackholed shard bound %s, want %s", blackholed.base, shard1Addr)
	}

	// First requests ride out the shard deadline (~540ms of the 600ms
	// budget), still answer 200, and name the missing shard.
	var partial struct {
		CompanyID     int   `json:"company_id"`
		Partial       bool  `json:"partial"`
		MissingShards []int `json:"missing_shards"`
		Matches       []struct {
			CompanyID int `json:"company_id"`
		} `json:"matches"`
	}
	for i := 0; i < 2; i++ { // two failures: exactly the breaker threshold
		resp, err := http.Get(router.base + "/v1/similar/3")
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded similar: %d\n%s", resp.StatusCode, body)
		}
		if resp.Header.Get("X-Partial") != "true" {
			t.Fatalf("degraded response missing X-Partial header")
		}
		if err := json.Unmarshal(body, &partial); err != nil {
			t.Fatal(err)
		}
		if !partial.Partial || len(partial.MissingShards) != 1 || partial.MissingShards[0] != 1 {
			t.Fatalf("degraded response: %s", body)
		}
		if len(partial.Matches) == 0 {
			t.Fatalf("degraded response has no matches: %s", body)
		}
	}

	// The breaker tripped open; with it open, requests skip shard 1 and
	// answer fast (well under the blackhole deadline).
	code, body := httpGetBody(t, router.debug+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("router /metrics: %d", code)
	}
	if v := metricValue(t, string(body), "router_shard1_breaker_state"); v != 2 {
		t.Fatalf("router_shard1_breaker_state = %d, want 2 (open)", v)
	}
	start := time.Now()
	code, body = httpGetBody(t, router.base+"/v1/similar/3")
	if dur := time.Since(start); code != http.StatusOK || dur > 400*time.Millisecond {
		t.Fatalf("open-breaker request: %d in %s\n%s", code, dur, body)
	}
	if err := json.Unmarshal(body, &partial); err != nil {
		t.Fatal(err)
	}
	if !partial.Partial || len(partial.MissingShards) != 1 || partial.MissingShards[0] != 1 {
		t.Fatalf("open-breaker response not partial: %s", body)
	}

	// Two-phase recommend degrades the same way: phase 1 merges peers from
	// the healthy shards, a healthy shard scores them.
	code, body = httpGetBody(t, router.base+"/v1/recommend/3?peers=15&k=4")
	if code != http.StatusOK {
		t.Fatalf("degraded recommend: %d\n%s", code, body)
	}
	var rec struct {
		Partial         bool  `json:"partial"`
		MissingShards   []int `json:"missing_shards"`
		Recommendations []struct {
			Strength float64 `json:"strength"`
		} `json:"recommendations"`
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.Partial || len(rec.Recommendations) == 0 {
		t.Fatalf("degraded recommend: %s", body)
	}

	// ibload against the degraded router: every answer is a 200 (no errors
	// of either class), and the report's new partial_responses counter
	// records the degradation the error counters can't see.
	reportPath := filepath.Join(dir, "BENCH_router.json")
	runTool(t, ibload,
		"-url", router.base, "-corpus", corpusPath,
		"-mode", "open", "-rate", "60", "-duration", "1s",
		"-seed", "4", "-label", "degraded_router", "-out", reportPath)
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Label string `json:"label"`
		Total struct {
			Requests        int `json:"requests"`
			Errors          int `json:"errors"`
			ErrorsTransport int `json:"errors_transport"`
			ErrorsHTTP      int `json:"errors_http"`
			Partial         int `json:"partial_responses"`
		} `json:"total"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH_router.json: %v\n%s", err, raw)
	}
	if rep.Label != "degraded_router" {
		t.Fatalf("report label: %+v", rep)
	}
	if rep.Total.Requests < 30 || rep.Total.Errors != 0 ||
		rep.Total.ErrorsTransport != 0 || rep.Total.ErrorsHTTP != 0 {
		t.Fatalf("degraded replay should be error-free 200s: %+v", rep.Total)
	}
	if rep.Total.Partial < rep.Total.Requests/2 {
		t.Fatalf("partial_responses %d of %d requests — degradation not recorded",
			rep.Total.Partial, rep.Total.Requests)
	}

	// Router health names the tripped breaker and stays "ok" — partial
	// availability is the feature.
	code, body = httpGetBody(t, router.base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("router /healthz: %d\n%s", code, body)
	}
	var health struct {
		Status string `json:"status"`
		Shards []struct {
			Index   int    `json:"index"`
			Breaker string `json:"breaker"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Shards) != 3 {
		t.Fatalf("router health: %s", body)
	}
	if br := health.Shards[1].Breaker; br != "open" {
		t.Fatalf("shard 1 breaker %q, want open", br)
	}
	if code, _ := httpGetBody(t, router.base+"/readyz"); code != http.StatusOK {
		t.Fatalf("router /readyz: %d", code)
	}
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
