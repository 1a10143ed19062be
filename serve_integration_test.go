package hiddenlayer

// End-to-end test for the ibserve HTTP query service: generate a corpus,
// train an LDA model, start the server on a random port, drive every
// endpoint (including a hot reload with requests in flight), and check the
// per-endpoint serving metrics on the debug listener.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestServeIntegration(t *testing.T) {
	ibserve := tool(t, "ibserve")
	corpusPath, modelPath := sharedFixture(t)

	// Start the server on random ports for both listeners.
	srv := startProc(t, ibserve,
		"-corpus", corpusPath, "-model", modelPath,
		"-addr", "localhost:0", "-debug-addr", "localhost:0",
		"-k", "5", "-grace", "10s")
	base := srv.base

	// Health first: confirms the index shape before querying.
	var health struct {
		Status    string `json:"status"`
		Companies int    `json:"companies"`
		Topics    int    `json:"topics"`
	}
	resp, body := fetch(t, base+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d\n%s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("/healthz: %v\n%s", err, body)
	}
	if health.Status != "ok" || health.Companies != 200 || health.Topics != 3 {
		t.Fatalf("/healthz: %+v", health)
	}

	// /v1/similar with and without a filter.
	var similar struct {
		CompanyID int `json:"company_id"`
		Matches   []struct {
			CompanyID  int     `json:"company_id"`
			Name       string  `json:"name"`
			Similarity float64 `json:"similarity"`
		} `json:"matches"`
	}
	resp, body = fetch(t, base+"/v1/similar/3", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/similar/3: status %d\n%s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &similar); err != nil {
		t.Fatal(err)
	}
	if similar.CompanyID != 3 || len(similar.Matches) != 5 {
		t.Fatalf("similar: id %d with %d matches (want 5 via -k)", similar.CompanyID, len(similar.Matches))
	}
	for i, m := range similar.Matches {
		if m.CompanyID == 3 || m.Name == "" {
			t.Fatalf("match %d invalid: %+v", i, m)
		}
		if i > 0 && m.Similarity > similar.Matches[i-1].Similarity {
			t.Fatal("matches not sorted by similarity")
		}
	}
	resp, body = fetch(t, base+"/v1/similar/3?k=2&min_employees=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filtered similar: status %d\n%s", resp.StatusCode, body)
	}

	// /v1/recommend.
	var rec struct {
		Recommendations []struct {
			Category int     `json:"category"`
			Name     string  `json:"name"`
			Strength float64 `json:"strength"`
		} `json:"recommendations"`
	}
	resp, body = fetch(t, base+"/v1/recommend/3?peers=15&k=4", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/recommend/3: status %d\n%s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Recommendations) == 0 {
		t.Fatal("no recommendations for a 200-company corpus")
	}
	for _, r := range rec.Recommendations {
		if r.Name == "" || r.Strength <= 0 || r.Strength > 1 {
			t.Fatalf("invalid recommendation %+v", r)
		}
	}

	// /v1/whitespace.
	var ws struct {
		Prospects []struct {
			CompanyID     int     `json:"company_id"`
			NearestClient int     `json:"nearest_client"`
			Similarity    float64 `json:"similarity"`
		} `json:"prospects"`
	}
	resp, body = fetch(t, base+"/v1/whitespace",
		map[string]any{"clients": []int{1, 2, 3}, "k": 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/whitespace: status %d\n%s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ws); err != nil {
		t.Fatal(err)
	}
	if len(ws.Prospects) != 4 {
		t.Fatalf("whitespace returned %d prospects, want 4", len(ws.Prospects))
	}
	clients := map[int]bool{1: true, 2: true, 3: true}
	for _, p := range ws.Prospects {
		if clients[p.CompanyID] || !clients[p.NearestClient] {
			t.Fatalf("invalid prospect %+v", p)
		}
	}

	// /v1/infer: out-of-corpus scoring.
	var inf struct {
		Theta   []float64 `json:"theta"`
		Matches []struct {
			CompanyID int `json:"company_id"`
		} `json:"matches"`
	}
	resp, body = fetch(t, base+"/v1/infer",
		map[string]any{"owned": []int{0, 4, 7}, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/infer: status %d\n%s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &inf); err != nil {
		t.Fatal(err)
	}
	if len(inf.Theta) != 3 || len(inf.Matches) != 3 {
		t.Fatalf("infer: %d topics / %d matches, want 3/3", len(inf.Theta), len(inf.Matches))
	}
	var sum float64
	for _, v := range inf.Theta {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("theta does not sum to 1: %v", inf.Theta)
	}

	// One malformed request per family for the error counters.
	if resp, _ = fetch(t, base+"/v1/similar/99999", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown id: status %d, want 400", resp.StatusCode)
	}
	if resp, _ = fetch(t, base+"/v1/whitespace", map[string]any{"clients": []int{}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty clients: status %d, want 400", resp.StatusCode)
	}

	// Hot reload with queries in flight: every concurrent request must get a
	// complete answer from either the old or the new generation.
	var wg sync.WaitGroup
	reqErrs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/v1/similar/%d?k=3", base, g*10+i))
				if err != nil {
					reqErrs <- err
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					reqErrs <- fmt.Errorf("in-flight query during reload: status %d: %s", resp.StatusCode, b)
					return
				}
			}
		}(g)
	}
	var reload struct {
		Reloaded  bool `json:"reloaded"`
		Companies int  `json:"companies"`
	}
	resp, body = fetch(t, base+"/admin/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/admin/reload: status %d\n%s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &reload); err != nil {
		t.Fatal(err)
	}
	if !reload.Reloaded || reload.Companies != 200 {
		t.Fatalf("reload response %+v", reload)
	}
	wg.Wait()
	close(reqErrs)
	for err := range reqErrs {
		t.Error(err)
	}
	// Identical files on disk: post-reload answers match pre-reload ones.
	resp, body = fetch(t, base+"/v1/similar/3", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload similar: status %d", resp.StatusCode)
	}
	var similar2 struct {
		Matches []struct {
			CompanyID  int     `json:"company_id"`
			Similarity float64 `json:"similarity"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(body, &similar2); err != nil {
		t.Fatal(err)
	}
	for i, m := range similar.Matches {
		if similar2.Matches[i].CompanyID != m.CompanyID || similar2.Matches[i].Similarity != m.Similarity {
			t.Fatalf("reload of unchanged files changed answer %d: %+v vs %+v", i, similar2.Matches[i], m)
		}
	}

	// Metrics on the debug listener: served and error counters must match
	// exactly the requests sent above (42 similar served: 2 warm-up + 40
	// during reload hammering + 1 post-reload = 43; recompute carefully).
	metrics := srv.metrics(t)
	similarServed := metric(t, metrics, "serve_similar_requests_total")
	similarErrs := metric(t, metrics, "serve_similar_errors_total")
	// 2 warm-up + 40 in-flight + 1 post-reload = 43 served; 1 bad id.
	if similarServed != 43 {
		t.Errorf("serve_similar_requests_total = %v, want 43", similarServed)
	}
	if similarErrs != 1 {
		t.Errorf("serve_similar_errors_total = %v, want 1", similarErrs)
	}
	if v := metric(t, metrics, "serve_recommend_requests_total"); v != 1 {
		t.Errorf("serve_recommend_requests_total = %v, want 1", v)
	}
	if v := metric(t, metrics, "serve_whitespace_requests_total"); v != 1 {
		t.Errorf("serve_whitespace_requests_total = %v, want 1", v)
	}
	if v := metric(t, metrics, "serve_whitespace_errors_total"); v != 1 {
		t.Errorf("serve_whitespace_errors_total = %v, want 1", v)
	}
	if v := metric(t, metrics, "serve_infer_requests_total"); v != 1 {
		t.Errorf("serve_infer_requests_total = %v, want 1", v)
	}
	if v := metric(t, metrics, "serve_reload_requests_total"); v != 1 {
		t.Errorf("serve_reload_requests_total = %v, want 1", v)
	}
	// The core-layer counters the bugfix pinned down must agree: whitespace
	// failures may not leak into whitespace_requests_total.
	wsCoreServed := metric(t, metrics, "whitespace_requests_total")
	if wsCoreServed != 1 {
		t.Errorf("whitespace_requests_total = %v, want 1 (errors must not count)", wsCoreServed)
	}

	// Graceful shutdown: SIGTERM drains and exits cleanly.
	if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv.wait(t, 15*time.Second); err != nil {
		t.Fatalf("server exited uncleanly: %v\nstderr:\n%s", err, srv.stderr.String())
	}
	if !strings.Contains(srv.stderr.String(), "drained and stopped") {
		t.Fatalf("no drain log on shutdown; stderr:\n%s", srv.stderr.String())
	}
	// The live heap the boot's forced collection found, on a line of its own.
	if m := regexp.MustCompile(`boot heap heap_live_mb=([0-9.]+)\n`).FindStringSubmatch(srv.stderr.String()); m == nil || m[1] == "0" {
		t.Fatalf("no positive heap_live_mb line after boot; stderr:\n%s", srv.stderr.String())
	}
}
