package hiddenlayer

// End-to-end test for scatter-gather sharded serving when a shard fails:
// three ibserve processes each holding one hash partition behind an
// ibrouter. A blackholed shard degrades to 200 + "partial": true naming the
// missing shard, the per-shard breaker trips open on the router's /metrics,
// and an ibload replay against the degraded router records the partial
// responses with a clean transport/HTTP error split. TestServeDifferential's
// binary rounds hold a healthy fan-out's answers to one unsharded reference.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/proctest"
)

func TestShardedServingIntegration(t *testing.T) {
	ibserve := tools.Path(t, "ibserve")
	ibrouter := tools.Path(t, "ibrouter")
	ibload := tools.Path(t, "ibload")
	corpusPath, modelPath := sharedFixture(t)

	// A 3-shard cluster over the fixture.
	common := []string{"-corpus", corpusPath, "-model", modelPath,
		"-addr", "localhost:0", "-quiet"}
	shards := make([]*proctest.Proc, 3)
	addrs := make([]string, 3)
	for i := range shards {
		shards[i] = proctest.Start(t, ibserve,
			append([]string{"-shard", fmt.Sprintf("%d/3", i)}, common...)...)
		addrs[i] = strings.TrimPrefix(shards[i].Base, "http://")
	}
	router := proctest.Start(t, ibrouter,
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
		resp, body := fetch(t, sh.Base+"/healthz", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d /healthz: %d\n%s", i, resp.StatusCode, body)
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

	// Blackhole shard 1: kill it and bind its port to a server whose /v1
	// endpoints hang until the client gives up (the dead-switch-port failure
	// mode). /readyz and /internal stay live, proxied to a fresh shard 1, so
	// the router's degradation comes from the breaker and per-shard
	// deadlines, not the readiness probe.
	shard1Addr := addrs[1]
	shards[1].Kill()
	backend := proctest.Start(t, ibserve, append([]string{"-shard", "1/3"}, common...)...)
	target, err := url.Parse(backend.Base)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", httputil.NewSingleHostReverseProxy(target))
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		// The server notices the client leaving only through a background
		// read, which starts once the body is consumed.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	ln, err := net.Listen("tcp", shard1Addr)
	if err != nil {
		t.Fatal(err)
	}
	if ln.Addr().String() != shard1Addr {
		t.Fatalf("blackholed shard bound %s, want %s", ln.Addr(), shard1Addr)
	}
	blackhole := &http.Server{Handler: mux}
	go blackhole.Serve(ln)
	t.Cleanup(func() { blackhole.Close() })

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
		resp, body := fetch(t, router.Base+"/v1/similar/3", nil)
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
	if v := proctest.Metric(t, router.Metrics(t), "router_shard1_breaker_state"); v != 2 {
		t.Fatalf("router_shard1_breaker_state = %v, want 2 (open)", v)
	}
	start := time.Now()
	resp, body := fetch(t, router.Base+"/v1/similar/3", nil)
	if dur := time.Since(start); resp.StatusCode != http.StatusOK || dur > 400*time.Millisecond {
		t.Fatalf("open-breaker request: %d in %s\n%s", resp.StatusCode, dur, body)
	}
	if err := json.Unmarshal(body, &partial); err != nil {
		t.Fatal(err)
	}
	if !partial.Partial || len(partial.MissingShards) != 1 || partial.MissingShards[0] != 1 {
		t.Fatalf("open-breaker response not partial: %s", body)
	}

	// Two-phase recommend degrades the same way: phase 1 merges peers from
	// the healthy shards, a healthy shard scores them.
	resp, body = fetch(t, router.Base+"/v1/recommend/3?peers=15&k=4", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded recommend: %d\n%s", resp.StatusCode, body)
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
	reportPath := filepath.Join(t.TempDir(), "BENCH_router.json")
	proctest.Run(t, ibload,
		"-url", router.Base, "-corpus", corpusPath,
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
	resp, body = fetch(t, router.Base+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /healthz: %d\n%s", resp.StatusCode, body)
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
	if resp, _ := fetch(t, router.Base+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("router /readyz: %d", resp.StatusCode)
	}
}
