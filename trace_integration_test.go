package hiddenlayer

// End-to-end test for request-scoped tracing on the ibserve binary: start
// the server with tracing enabled, drive traced queries, and read the span
// trees back through /debug/traces on the debug listener. A second server
// run pins the tail-sampling contract at the process level: with the sample
// rate at zero, fast successful requests leave no trace while a failed
// (deadline-exceeded) request is always retained.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// traceServer starts ibserve with the given extra flags and returns the
// serving and debug base URLs plus a cleanup-registered process handle.
func traceServer(t *testing.T, ibserve, corpusPath, modelPath string, extra ...string) (base, debug string) {
	t.Helper()
	args := append([]string{
		"-corpus", corpusPath, "-model", modelPath,
		"-addr", "localhost:0", "-debug-addr", "localhost:0",
		"-k", "5", "-grace", "5s",
	}, extra...)
	cmd := exec.Command(ibserve, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
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
	debugAddr := scrapeAddr(t, sc, "debug on ")
	serveAddr := scrapeAddr(t, sc, "serving on ")
	return "http://" + serveAddr, "http://" + debugAddr
}

// getTraceJSON polls /debug/traces/{id} until the trace is retained (the
// root span ends in a deferred handler after the response bytes are written,
// so the trace can lag the response by a scheduling beat).
func getTraceJSON(t *testing.T, debug, id string, out any) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := httpGetBody(t, debug+"/debug/traces/"+id)
		if code == http.StatusOK {
			if err := json.Unmarshal(body, out); err != nil {
				t.Fatalf("/debug/traces/%s: %v\n%s", id, err, body)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/traces/%s: still %d after 5s\n%s", id, code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// spanNode mirrors trace.SpanJSON for decoding without importing internal
// packages into the binary-level test.
type spanNode struct {
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id"`
	Name     string `json:"name"`
	DurUS    int64  `json:"duration_us"`
	Error    string `json:"error"`
	Attrs    []struct {
		Key   string `json:"key"`
		Value string `json:"value"`
	} `json:"attrs"`
	Children []*spanNode `json:"children"`
}

type traceNode struct {
	TraceID      string    `json:"trace_id"`
	Name         string    `json:"name"`
	DurUS        int64     `json:"duration_us"`
	Retained     string    `json:"retained"`
	Error        bool      `json:"error"`
	Spans        int       `json:"spans"`
	RemoteParent string    `json:"remote_parent"`
	Root         *spanNode `json:"root"`
}

func collectSpans(root *spanNode, name string) []*spanNode {
	var out []*spanNode
	if root == nil {
		return out
	}
	if root.Name == name {
		out = append(out, root)
	}
	for _, c := range root.Children {
		out = append(out, collectSpans(c, name)...)
	}
	return out
}

func TestTraceIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	ibgen := buildTool(t, dir, "ibgen")
	ibtrain := buildTool(t, dir, "ibtrain")
	ibserve := buildTool(t, dir, "ibserve")

	corpusPath := filepath.Join(dir, "corpus.jsonl")
	modelPath := filepath.Join(dir, "lda.gob")
	runTool(t, ibgen, "-companies", "200", "-seed", "9", "-out", corpusPath)
	runTool(t, ibtrain, "-model", "lda", "-topics=3", "-corpus", corpusPath,
		"-out", modelPath, "-seed", "1")

	// Run 1: everything traced (-trace-sample 1), on a single worker.
	t.Run("SpanTrees", func(t *testing.T) {
		base, debug := traceServer(t, ibserve, corpusPath, modelPath,
			"-trace", "-trace-sample", "1", "-workers", "1", "-quiet")

		// Health reports the tracing state alongside the index shape.
		var health struct {
			Status     string  `json:"status"`
			Tracing    bool    `json:"tracing"`
			Generation uint64  `json:"generation"`
			Vocab      int     `json:"vocab"`
			Uptime     float64 `json:"uptime_seconds"`
		}
		code, body := httpGetBody(t, base+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("/healthz: status %d\n%s", code, body)
		}
		if err := json.Unmarshal(body, &health); err != nil {
			t.Fatalf("/healthz: %v\n%s", err, body)
		}
		if health.Status != "ok" || !health.Tracing || health.Generation != 1 || health.Vocab == 0 {
			t.Fatalf("/healthz: %+v, want ok/tracing/gen 1/vocab > 0", health)
		}

		// A traced query echoes its assigned IDs in the traceparent header.
		resp, err := http.Get(base + "/v1/similar/3?k=5")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/similar/3: status %d", resp.StatusCode)
		}
		tp := resp.Header.Get("traceparent")
		parts := strings.Split(tp, "-")
		if len(parts) != 4 || parts[0] != "00" || len(parts[1]) != 32 {
			t.Fatalf("response traceparent %q is not a version-00 header", tp)
		}
		id := parts[1]

		// topkOf fetches a retained trace and returns it with its one
		// core.topk span and that span's leaves_visited attribute.
		topkOf := func(traceID string) (traceNode, *spanNode, string) {
			t.Helper()
			var tj traceNode
			getTraceJSON(t, debug, traceID, &tj)
			topk := collectSpans(tj.Root, "core.topk")
			if len(topk) != 1 {
				t.Fatalf("found %d core.topk spans, want 1", len(topk))
			}
			leaves := ""
			for _, a := range topk[0].Attrs {
				if a.Key == "leaves_visited" {
					leaves = a.Value
				}
			}
			return tj, topk[0], leaves
		}

		// An unfiltered query searches the cone tree on the request's
		// goroutine: serve -> core, with leaves_visited and no par.shard.
		tj, topk, leaves := topkOf(id)
		if tj.Name != "serve.similar" || tj.Retained != "sampled" || tj.Error {
			t.Fatalf("trace %+v, want sampled serve.similar", tj)
		}
		if leaves == "" || leaves == "0" {
			t.Fatalf("unfiltered core.topk leaves_visited %q, want at least 1", leaves)
		}
		if shards := collectSpans(topk, "par.shard"); len(shards) != 0 {
			t.Fatalf("unfiltered core.topk has %d par.shard spans, want none", len(shards))
		}

		// get serves a query and returns its trace ID.
		get := func(path string) string {
			t.Helper()
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", path, resp.StatusCode)
			}
			return strings.Split(resp.Header.Get("traceparent"), "-")[1]
		}

		// A country-filtered query searches its candidate list's tree the
		// same way.
		_, topk, leaves = topkOf(get("/v1/similar/3?k=5&country=US"))
		if leaves == "" || leaves == "0" {
			t.Fatalf("country-filtered core.topk leaves_visited %q, want at least 1", leaves)
		}
		if shards := collectSpans(topk, "par.shard"); len(shards) != 0 {
			t.Fatalf("country-filtered core.topk has %d par.shard spans, want none", len(shards))
		}

		// So does a range-filtered query: it searches the index's tree and
		// tests the bound row by row.
		tj, topk, leaves = topkOf(get("/v1/similar/3?k=5&min_employees=1"))
		if leaves == "" || leaves == "0" {
			t.Fatalf("range-filtered core.topk leaves_visited %q, want at least 1", leaves)
		}
		if shards := collectSpans(topk, "par.shard"); len(shards) != 0 {
			t.Fatalf("range-filtered core.topk has %d par.shard spans, want none", len(shards))
		}
		if tj.Root.DurUS < topk.DurUS {
			t.Fatalf("root duration %dus < core.topk %dus", tj.Root.DurUS, topk.DurUS)
		}

		// The list endpoint filters by root-span name.
		code, body = httpGetBody(t, debug+"/debug/traces?endpoint=serve.similar")
		if code != http.StatusOK {
			t.Fatalf("/debug/traces: status %d\n%s", code, body)
		}
		var sums []struct {
			TraceID string `json:"trace_id"`
			Name    string `json:"name"`
		}
		if err := json.Unmarshal(body, &sums); err != nil {
			t.Fatalf("/debug/traces: %v\n%s", err, body)
		}
		found := false
		for _, sum := range sums {
			if sum.TraceID == id {
				found = true
			}
			if sum.Name != "serve.similar" {
				t.Fatalf("endpoint filter leaked %q", sum.Name)
			}
		}
		if !found {
			t.Fatalf("trace %s missing from /debug/traces list", id)
		}

		// A caller-supplied traceparent is joined, not replaced.
		const inbound = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
		req, err := http.NewRequest(http.MethodGet, base+"/v1/similar/4?k=3", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", inbound)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		echo := resp.Header.Get("traceparent")
		if !strings.HasPrefix(echo, "00-0af7651916cd43dd8448eb211c80319c-") {
			t.Fatalf("echoed traceparent %q does not keep the caller's trace ID", echo)
		}
		if strings.Contains(echo, "b7ad6b7169203331") {
			t.Fatalf("echoed traceparent %q reuses the caller's span ID", echo)
		}
		var joined traceNode
		getTraceJSON(t, debug, "0af7651916cd43dd8448eb211c80319c", &joined)
		if joined.RemoteParent != "b7ad6b7169203331" {
			t.Fatalf("remote parent %q", joined.RemoteParent)
		}
	})

	// Run 2: sample rate zero. Fast successes must vanish; a request that
	// blows its (client-shrunk) deadline is an error and always retained.
	t.Run("TailSampling", func(t *testing.T) {
		base, debug := traceServer(t, ibserve, corpusPath, modelPath,
			"-trace", "-trace-sample", "0", "-trace-slow", "250ms", "-quiet")

		for i := 0; i < 5; i++ {
			code, body := httpGetBody(t, fmt.Sprintf("%s/v1/similar/%d?k=5", base, i))
			if code != http.StatusOK {
				t.Fatalf("similar %d: status %d\n%s", i, code, body)
			}
		}

		// timeout_ms can only shrink the deadline. A 1us deadline races the
		// runtime timer against the scan, so drive a deliberately heavy
		// whitespace query (every company as a client) and retry until the
		// timer wins; the eventual deadline blow-through is a 503/504 error
		// and must be retained. Any 200s along the way are fast successes
		// (far under the 250ms slow threshold) and are sampled out.
		clients := make([]int, 200)
		for i := range clients {
			clients[i] = i
		}
		var code int
		var body []byte
		for attempt := 0; attempt < 50; attempt++ {
			code, body = httpPostBody(t,
				base+"/v1/whitespace?timeout_ms=0.001",
				map[string]any{"clients": clients, "k": 50})
			if code >= 500 {
				break
			}
		}
		if code < 500 {
			t.Fatalf("deadline-starved whitespace: status %d, want 5xx\n%s", code, body)
		}

		// The error trace lands; once it has, the fast successes above are
		// definitively sampled out (retention order matches request order).
		deadline := time.Now().Add(5 * time.Second)
		var sums []struct {
			Name     string `json:"name"`
			Retained string `json:"retained"`
			Error    bool   `json:"error"`
		}
		for {
			code, body = httpGetBody(t, debug+"/debug/traces")
			if code != http.StatusOK {
				t.Fatalf("/debug/traces: status %d\n%s", code, body)
			}
			sums = sums[:0]
			if err := json.Unmarshal(body, &sums); err != nil {
				t.Fatalf("/debug/traces: %v\n%s", err, body)
			}
			if len(sums) > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("error trace never retained")
			}
			time.Sleep(10 * time.Millisecond)
		}
		if len(sums) != 1 {
			t.Fatalf("retained %d traces at sample rate 0, want only the error\n%s", len(sums), body)
		}
		if sums[0].Name != "serve.whitespace" || !sums[0].Error || sums[0].Retained != "error" {
			t.Fatalf("retained trace %+v, want serve.whitespace error", sums[0])
		}
	})
}
