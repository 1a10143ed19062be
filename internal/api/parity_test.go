package api_test

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/trace"
)

// parityIndex builds a 30-company index over hand-made representations; part
// of parts > 1 restricts its scans to one partition, as ibserve -shard does.
func parityIndex(t *testing.T, part, parts int) *core.Index {
	t.Helper()
	cat := corpus.DefaultCatalog()
	companies := make([]corpus.Company, 30)
	reps := mat.New(len(companies), 3)
	for i := range companies {
		companies[i] = corpus.Company{ID: i, Name: fmt.Sprintf("co-%02d", i), Country: "US", SIC2: 70,
			Employees: 10 + i, RevenueM: 1,
			Acquisitions: []corpus.Acquisition{{Category: i % cat.Size(), First: corpus.Month(1)}}}
		for j := 0; j < reps.Cols; j++ {
			reps.Data[i*reps.Cols+j] = float64((i*7+j*3)%11 + 1)
		}
	}
	ix, err := core.NewIndex(corpus.New(cat, companies), reps, core.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	if parts > 1 {
		if err := ix.SetPartition(part, parts); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func tracer() *trace.Tracer {
	tr := trace.NewTracer(16)
	tr.SetEnabled(true)
	tr.SetSampleRate(1)
	return tr
}

// TestShellParity drives the same requests through a serve.Server and a
// router.Router over two httptest shards and asserts what "one request shell"
// promises: the same status for the same failure class, the same
// {"error": ...} body shape, exactly one of <prefix>_<ep>_requests_total /
// <prefix>_<ep>_errors_total ticking per request, the inbound traceparent
// joined and echoed, and a trace exemplar left on the traced 200.
func TestShellParity(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	const bodyCap = 256
	newServer := func(part, parts int, tr *trace.Tracer) *httptest.Server {
		s, err := serve.New(serve.Loaded{Index: parityIndex(t, part, parts)}, nil,
			serve.Config{Quiet: true, Logger: quiet, Tracer: tr, MaxBodyBytes: bodyCap})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	rt, err := router.New(router.Config{
		Shards: []string{newServer(0, 2, nil).URL, newServer(1, 2, nil).URL},
		Quiet:  true, Logger: quiet, Tracer: tracer(), MaxBodyBytes: bodyCap,
		ProbeInterval: -1, HedgeQuantile: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	routed := httptest.NewServer(rt.Handler())
	t.Cleanup(routed.Close)
	targets := []struct{ prefix, url string }{
		{"serve", newServer(0, 1, tracer()).URL},
		{"router", routed.URL},
	}

	cases := []struct {
		name, method, path, endpoint, body string
		slowBody                           bool // the body arrives only after timeout_ms has expired
		want                               int
	}{
		{name: "200", method: "GET", path: "/v1/similar/3?k=5", endpoint: "similar", want: 200},
		{name: "bad id 400", method: "GET", path: "/v1/similar/notanid", endpoint: "similar", want: 400},
		{name: "oversized body 413", method: "POST", path: "/v1/whitespace", endpoint: "whitespace",
			body: `{"clients":[1],"pad":"` + strings.Repeat("x", 4*bodyCap) + `"}`, want: 413},
		{name: "timeout_ms expiry 504", method: "POST", path: "/v1/whitespace?timeout_ms=50", endpoint: "whitespace",
			body: `{"clients":[1,2],"k":3}`, slowBody: true, want: 504},
	}
	counter := func(name string) uint64 { return obs.Default().Counter(name, "").Value() }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var okBodies []string
			for i, tgt := range targets {
				traceID := fmt.Sprintf("0af7651916cd43dd8448eb211c8031%02x", i+1)
				var body io.Reader
				switch {
				case tc.slowBody:
					pr, pw := io.Pipe()
					go func() {
						time.Sleep(300 * time.Millisecond)
						_, _ = pw.Write([]byte(tc.body))
						pw.Close()
					}()
					body = pr
				case tc.body != "":
					body = strings.NewReader(tc.body)
				}
				req, err := http.NewRequest(tc.method, tgt.url+tc.path, body)
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("traceparent", "00-"+traceID+"-b7ad6b7169203331-01")
				series := tgt.prefix + "_" + tc.endpoint
				requests0, errors0 := counter(series+"_requests_total"), counter(series+"_errors_total")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				requests, errs := counter(series+"_requests_total")-requests0, counter(series+"_errors_total")-errors0

				if resp.StatusCode != tc.want {
					t.Fatalf("%s: status %d, want %d: %s", tgt.prefix, resp.StatusCode, tc.want, raw)
				}
				if echo, ok := trace.ParseTraceparent(resp.Header.Get("traceparent")); !ok || echo.TraceID.String() != traceID {
					t.Errorf("%s: echoed traceparent %q does not join trace %s", tgt.prefix, resp.Header.Get("traceparent"), traceID)
				}
				if tc.want >= 400 {
					var e map[string]string
					if err := json.Unmarshal(raw, &e); err != nil || len(e) != 1 || e["error"] == "" {
						t.Errorf("%s: error body %q is not {\"error\": ...}", tgt.prefix, raw)
					}
					// A blown deadline on ibserve is core's bare context error;
					// every other failure names the process that judged it.
					if msg := e["error"]; tc.want != 504 && !strings.HasPrefix(msg, "serve: ") && !strings.HasPrefix(msg, "router: ") {
						t.Errorf("%s: error text %q lost its process prefix", tgt.prefix, msg)
					}
					if requests != 0 || errs != 1 {
						t.Errorf("%s: %s requests/errors moved by %d/%d, want 0/1", tgt.prefix, series, requests, errs)
					}
					continue
				}
				okBodies = append(okBodies, string(raw))
				if requests != 1 || errs != 0 {
					t.Errorf("%s: %s requests/errors moved by %d/%d, want 1/0", tgt.prefix, series, requests, errs)
				}
				found := false
				for _, ex := range obs.Default().Snapshot().Histograms[series+"_latency_seconds"].Exemplars {
					found = found || ex.TraceID == traceID
				}
				if !found {
					t.Errorf("%s: no exemplar with trace %s on %s_latency_seconds", tgt.prefix, traceID, series)
				}
			}
			if len(okBodies) == 2 && okBodies[0] != okBodies[1] {
				t.Errorf("routed answer differs from unsharded\nserve  %srouter %s", okBodies[0], okBodies[1])
			}
		})
	}
}
