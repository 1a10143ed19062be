package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total", "ignored"); again != c {
		t.Fatal("second Counter call returned a different instance")
	}
	g := r.Gauge("temperature", "degrees")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestRegistryPanicsOnKindCollision(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering m as a gauge after counter did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestRegistryPanicsOnInvalidName(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("bad name!", "")
}

func TestValidAndSanitizedMetricNames(t *testing.T) {
	valid := []string{"a", "_x", "a_b:c", "lda_train_iterations_total", "A9"}
	for _, n := range valid {
		if !ValidMetricName(n) {
			t.Errorf("ValidMetricName(%q) = false, want true", n)
		}
	}
	invalid := []string{"", "9a", "a-b", "a.b", "a b"}
	for _, n := range invalid {
		if ValidMetricName(n) {
			t.Errorf("ValidMetricName(%q) = true, want false", n)
		}
	}
	cases := map[string]string{
		"lda.train":       "lda_train",
		"lda.train.sweep": "lda_train_sweep",
		"ok_name":         "ok_name",
		"9lives":          "_lives",
	}
	for in, want := range cases {
		if got := MetricName(in); got != want {
			t.Errorf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestConcurrentHammering exercises every metric kind from many goroutines;
// run with -race to validate the lock-free update paths.
func TestConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hammer_total", "")
			g := r.Gauge("hammer_gauge", "")
			h := r.Histogram("hammer_hist", "", []float64{0.25, 0.5, 0.75})
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 100)
				sp := r.StartSpan(fmt.Sprintf("hammer.worker%d", w))
				sp.End()
				if i%500 == 0 {
					r.Snapshot()
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Errorf("WritePrometheus: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hammer_total", "").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("hammer_gauge", "").Value(); got != workers*iters {
		t.Fatalf("gauge = %v, want %d", got, workers*iters)
	}
	if got := r.Histogram("hammer_hist", "", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5, 10})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v) / 10) // 0.1 .. 10.0 uniform
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if got, want := h.Sum(), 505.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Median of uniform(0.1, 10) is ~5; interpolation within [2,5] must land
	// in that bucket's range.
	p50 := h.Quantile(0.5)
	if p50 < 2 || p50 > 5.001 {
		t.Fatalf("p50 = %v, want within (2, 5]", p50)
	}
	// Out-of-range q clamps rather than panics.
	if got := h.Quantile(-1); got < 0 {
		t.Fatalf("Quantile(-1) = %v, want >= 0", got)
	}
	if got := h.Quantile(2); got > 10 {
		t.Fatalf("Quantile(2) = %v, want <= last bound", got)
	}
	// Values above the last bound land in +Inf and clamp to the last bound.
	h2 := newHistogram([]float64{1})
	h2.Observe(100)
	if got := h2.Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %v, want clamp to 1", got)
	}
}

func TestHistogramPanicsOnUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing buckets did not panic")
		}
	}()
	newHistogram([]float64{1, 1})
}

// TestPrometheusGolden locks the exposition format byte-for-byte.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("beta_total", "counts beta\nwith newline").Add(7)
	r.Gauge("alpha_ratio", "a ratio").Set(0.25)
	h := r.Histogram("gamma_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP alpha_ratio a ratio
# TYPE alpha_ratio gauge
alpha_ratio 0.25
# HELP beta_total counts beta\nwith newline
# TYPE beta_total counter
beta_total 7
# HELP gamma_seconds latency
# TYPE gamma_seconds histogram
gamma_seconds_bucket{le="0.1"} 1
gamma_seconds_bucket{le="1"} 2
gamma_seconds_bucket{le="+Inf"} 3
gamma_seconds_sum 3.55
gamma_seconds_count 3
`
	if got := buf.String(); got != want {
		t.Fatalf("Prometheus output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	parent := r.StartSpan("lda.train")
	child := r.StartSpan("lda.train.sweep")
	time.Sleep(time.Millisecond)
	if d := child.End(); d <= 0 {
		t.Fatalf("child duration = %v, want > 0", d)
	}
	if d := parent.End(); d <= 0 {
		t.Fatalf("parent duration = %v, want > 0", d)
	}
	snap := r.Snapshot()
	for _, name := range []string{"lda_train_seconds", "lda_train_sweep_seconds"} {
		hs, ok := snap.Histograms[name]
		if !ok {
			t.Fatalf("histogram %s missing from snapshot; have %v", name, snap.Histograms)
		}
		if hs.Count != 1 {
			t.Fatalf("%s count = %d, want 1", name, hs.Count)
		}
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(3)
	r.Gauge("g", "").Set(1.5)
	r.Histogram("h_seconds", "", []float64{1}).Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if snap.Counters["c_total"] != 3 {
		t.Fatalf("counters = %v, want c_total=3", snap.Counters)
	}
	if snap.Gauges["g"] != 1.5 {
		t.Fatalf("gauges = %v, want g=1.5", snap.Gauges)
	}
	hs := snap.Histograms["h_seconds"]
	if hs.Count != 1 || hs.Sum != 0.5 {
		t.Fatalf("histogram snapshot = %+v, want count 1 sum 0.5", hs)
	}
	if len(hs.Counts) != len(hs.Bounds)+1 {
		t.Fatalf("counts len %d, want bounds len %d + 1", len(hs.Counts), len(hs.Bounds))
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("debug_test_total", "").Inc()
	srv, err := StartDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(body, "debug_test_total 1") {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics content type = %q, want Prometheus text", ctype)
	}
	body, _ = get("/metrics.json")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json is not a Snapshot: %v", err)
	}
	body, _ = get("/debug/vars")
	if !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars missing expvar memstats:\n%.200s", body)
	}
	body, _ = get("/debug/pprof/cmdline")
	if body == "" {
		t.Fatal("/debug/pprof/cmdline returned empty body")
	}
}

func TestCLILoggerFormat(t *testing.T) {
	var buf bytes.Buffer
	logger := NewCLILogger(&buf, "ibtest", false)
	logger.Info("model written", "path", "out.gob", "topics", 3, "perplexity", 8.5)
	logger.Debug("hidden unless verbose")
	got := buf.String()
	want := "ibtest: model written path=out.gob topics=3 perplexity=8.5\n"
	if got != want {
		t.Fatalf("log line = %q, want %q", got, want)
	}

	buf.Reset()
	verbose := NewCLILogger(&buf, "ibtest", true)
	verbose.Debug("now visible", "note", "two words")
	if got, want := buf.String(), "ibtest: now visible note=\"two words\"\n"; got != want {
		t.Fatalf("verbose log line = %q, want %q", got, want)
	}

	buf.Reset()
	derived := NewCLILogger(&buf, "ibtest", false).With("run", 7).WithGroup("lda")
	derived.Info("sweep", "iter", 2)
	if got, want := buf.String(), "ibtest: sweep run=7 lda.iter=2\n"; got != want {
		t.Fatalf("derived log line = %q, want %q", got, want)
	}
}

func TestSlogProgress(t *testing.T) {
	var buf bytes.Buffer
	p := SlogProgress(NewCLILogger(&buf, "train", false))
	p(ProgressEvent{Model: "lda", Iteration: 3, Total: 10, Loss: -123.5, TokensPerSec: 1000})
	got := buf.String()
	for _, frag := range []string{"progress", "model=lda", "iter=3", "total=10"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("progress line %q missing %q", got, frag)
		}
	}
}
