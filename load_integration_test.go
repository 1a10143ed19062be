package hiddenlayer

// End-to-end test for the serving benchmark pair: ibserve with SLO
// tracking, trace exemplars and runtime metrics on one side, ibload
// replaying a deterministic query mix on the other. Asserts the full loop
// the ISSUE promises: ibload writes a well-formed BENCH_serve.json,
// /debug/slo reflects the run it just absorbed, and at least one /metrics
// histogram line carries an exemplar trace ID that resolves at
// /debug/traces/{id}.

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/load"
	"repro/internal/proctest"
	"repro/internal/trace"
)

// exemplarLine matches an OpenMetrics bucket line with a trace exemplar:
//
//	name_bucket{le="0.005"} 12 # {trace_id="4bf9..."} 0.0031 1e9
var exemplarLine = regexp.MustCompile(`_bucket\{le="[^"]+"\} \d+ # \{trace_id="([0-9a-f]{32})"\}`)

func TestLoadIntegration(t *testing.T) {
	ibserve := tools.Path(t, "ibserve")
	ibload := tools.Path(t, "ibload")
	corpusPath, modelPath := sharedFixture(t)
	dir := t.TempDir()

	// Sample every request so the slowest one is guaranteed retained; the
	// run below issues ~180 requests, under the 256-trace ring.
	srv := proctest.Start(t, ibserve,
		"-corpus", corpusPath, "-model", modelPath,
		"-addr", "localhost:0", "-debug-addr", "localhost:0",
		"-k", "5", "-grace", "5s",
		"-trace", "-trace-sample", "1", "-quiet",
		"-slo", "-slo-window", "30s", "-slo-latency", "default=250ms",
		"-runtime-metrics", "-runtime-interval", "1s")
	base, debug := srv.Base, srv.Debug

	reportPath := filepath.Join(dir, "BENCH_serve.json")
	out := proctest.Run(t, ibload,
		"-url", base, "-corpus", corpusPath,
		"-mode", "open", "-rate", "100", "-duration", "1500ms", "-warmup", "300ms",
		"-seed", "4", "-out", reportPath)
	if !strings.Contains(out, "report written to") {
		t.Fatalf("ibload output: %s", out)
	}

	// The report is well-formed with per-endpoint quantiles.
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep load.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH_serve.json: %v\n%s", err, raw)
	}
	if rep.Mode != "open" || !rep.CoordinatedOmissionCorrected || rep.TargetQPS != 100 {
		t.Fatalf("report metadata: %+v", rep)
	}
	if rep.Total.Requests < 100 || rep.Total.QPS <= 0 {
		t.Fatalf("report total: %+v", rep.Total)
	}
	if rep.Total.Errors != 0 {
		t.Fatalf("replay hit errors against a healthy server: %+v", rep.Total)
	}
	var sum int
	for name, e := range rep.Endpoints {
		sum += e.Requests
		if e.P50MS > e.P99MS {
			t.Fatalf("%s quantiles out of order: %+v", name, e)
		}
	}
	if sum != rep.Total.Requests {
		t.Fatalf("endpoint sum %d != total %d", sum, rep.Total.Requests)
	}
	if len(rep.Endpoints) < 3 {
		t.Fatalf("mix only reached %d endpoints: %v", len(rep.Endpoints), rep.Endpoints)
	}

	// The report's slowest trace resolves on the server's debug listener.
	if rep.Total.SlowestTraceID == "" {
		t.Fatal("report missing slowest_trace_id with tracing on")
	}
	var tr trace.TraceJSON
	getTraceJSON(t, debug, rep.Total.SlowestTraceID, &tr)
	if tr.TraceID != rep.Total.SlowestTraceID || tr.Spans == 0 {
		t.Fatalf("slowest trace: %+v", tr)
	}

	// /debug/slo reflects the run: the endpoints ibload hit show requests,
	// zero errors, full error budget.
	resp, body := fetch(t, debug+"/debug/slo", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slo: %d\n%s", resp.StatusCode, body)
	}
	var slo api.SLOStatus
	if err := json.Unmarshal(body, &slo); err != nil {
		t.Fatalf("/debug/slo: %v\n%s", err, body)
	}
	if !slo.OK || slo.WindowSec != 30 {
		t.Fatalf("slo status: %+v", slo)
	}
	var sloRequests int
	for _, e := range slo.Endpoints {
		sloRequests += int(e.Requests)
		if e.Errors != 0 {
			t.Fatalf("slo endpoint %s saw errors: %+v", e.Endpoint, e)
		}
		if e.Requests > 0 && (e.BurnRate != 0 || e.BudgetRemaining != 1) {
			t.Fatalf("error-free endpoint %s burning budget: %+v", e.Endpoint, e)
		}
		if e.LatencyObjectiveMS != 250 {
			t.Fatalf("-slo-latency default not applied to %s: %+v", e.Endpoint, e)
		}
	}
	// ibload's total includes warmup requests the report excluded; the SLO
	// window saw every one of them (window 30s > run span).
	if sloRequests < rep.Total.Requests {
		t.Fatalf("/debug/slo saw %d requests, ibload measured %d", sloRequests, rep.Total.Requests)
	}
	if len(slo.Burning) != 0 {
		t.Fatalf("healthy run marked burning: %v", slo.Burning)
	}

	// Text rendering for humans.
	resp, body = fetch(t, debug+"/debug/slo?format=text", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "endpoint") {
		t.Fatalf("/debug/slo?format=text: %d\n%s", resp.StatusCode, body)
	}

	// /healthz carries the SLO summary.
	resp, body = fetch(t, base+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"slo"`) {
		t.Fatalf("/healthz: %d\n%s", resp.StatusCode, body)
	}

	// /metrics: at least one histogram bucket line carries a trace
	// exemplar, and the exemplar's trace ID resolves at /debug/traces/{id}.
	metrics := srv.Metrics(t)
	m := exemplarLine.FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("no exemplar on any /metrics bucket line:\n%s", metrics)
	}
	var exTrace trace.TraceJSON
	getTraceJSON(t, debug, m[1], &exTrace)
	if exTrace.TraceID != m[1] {
		t.Fatalf("exemplar trace: %+v", exTrace)
	}

	// Runtime sampler series are exposed (interval 1s, server has been up
	// longer than that; first sample is synchronous anyway).
	for _, series := range []string{"go_goroutines", "go_heap_inuse_bytes", "go_uptime_seconds"} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/metrics missing runtime series %s", series)
		}
	}
	// Windowed SLO histograms registered by the serve layer are in the JSON
	// exposition with rolling quantiles.
	resp, body = fetch(t, debug+"/metrics.json", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "latency_window_seconds") {
		t.Fatalf("/metrics.json missing windowed series: %d\n%.2000s", resp.StatusCode, body)
	}

	// Determinism across processes: the same seed replays the same stream,
	// so a second run's endpoint request counts match the first (same total
	// schedule; per-endpoint split depends only on the RNG).
	report2 := filepath.Join(dir, "BENCH_serve2.json")
	proctest.Run(t, ibload,
		"-url", base, "-corpus", corpusPath,
		"-mode", "open", "-rate", "100", "-duration", "1500ms", "-warmup", "300ms",
		"-seed", "4", "-out", report2)
	raw2, err := os.ReadFile(report2)
	if err != nil {
		t.Fatal(err)
	}
	var rep2 load.Report
	if err := json.Unmarshal(raw2, &rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.Total.Requests != rep.Total.Requests {
		t.Fatalf("same seed, different request counts: %d vs %d",
			rep2.Total.Requests, rep.Total.Requests)
	}
	for name, e := range rep.Endpoints {
		if rep2.Endpoints[name].Requests != e.Requests {
			t.Fatalf("same seed, different %s counts: %d vs %d",
				name, rep2.Endpoints[name].Requests, e.Requests)
		}
	}
}
