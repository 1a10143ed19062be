package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var testMeta = corpusMeta{Companies: 5000, Vocab: 38, Countries: []string{"DE", "US"}, SIC2s: []int{35, 73}}

func TestStreamDeterminism(t *testing.T) {
	for _, zipf := range []float64{0, 1.1} {
		a := genStream(testMeta, 7, zipf, 1000)
		b := genStream(testMeta, 7, zipf, 1000)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("zipf %v: same seed gave different streams", zipf)
		}
		if c := genStream(testMeta, 8, zipf, 1000); reflect.DeepEqual(a, c) {
			t.Fatalf("zipf %v: different seeds gave the same stream", zipf)
		}
		// A longer stream starts with the shorter one: the three closed-loop
		// workloads may cut the same stream at different lengths.
		if long := genStream(testMeta, 7, zipf, 1500); !reflect.DeepEqual(a, long[:1000]) {
			t.Fatalf("zipf %v: a longer stream does not extend the shorter one", zipf)
		}
	}
}

func TestStreamFileRoundTripAndHash(t *testing.T) {
	reqs := genStream(testMeta, 3, 0, 400)
	dir := t.TempDir()
	sha1, err := writeStream(filepath.Join(dir, "a.jsonl"), reqs)
	if err != nil {
		t.Fatal(err)
	}
	sha2, err := writeStream(filepath.Join(dir, "b.jsonl"), genStream(testMeta, 3, 0, 400))
	if err != nil {
		t.Fatal(err)
	}
	if sha1 != sha2 {
		t.Fatalf("same stream, different file hashes: %s vs %s", sha1, sha2)
	}
	if onDisk, err := fileSHA256(filepath.Join(dir, "a.jsonl")); err != nil || onDisk != sha1 {
		t.Fatalf("hash returned by writeStream %s, hash of the file %s (%v)", sha1, onDisk, err)
	}
	back, err := readStream(filepath.Join(dir, "a.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reqs, back) {
		t.Fatal("stream changed on its way through the file")
	}
}

func TestStreamMixAndPopularity(t *testing.T) {
	const n = 20000
	count := func(reqs []request) (perEndpoint [4]int, filtered int, ids map[string]int) {
		ids = map[string]int{}
		for _, r := range reqs {
			perEndpoint[r.Endpoint]++
			if strings.Contains(r.Path, "country=") || strings.Contains(r.Path, "sic2=") || strings.Contains(r.Body, "filter") {
				filtered++
			}
			if endpointNames[r.Endpoint] == "similar" {
				ids[strings.SplitN(strings.TrimPrefix(r.Path, "/v1/similar/"), "?", 2)[0]]++
			}
		}
		return
	}
	uniform, filtered, uniformIDs := count(genStream(testMeta, 1, 0, n))
	// Every block of twenty carries the mix exactly.
	if want := [4]int{n * 11 / 20, n * 6 / 20, n * 2 / 20, n / 20}; uniform != want {
		t.Fatalf("endpoint mix %v, want %v", uniform, want)
	}
	if share := float64(filtered) / n; share < 0.22 || share > 0.28 {
		t.Fatalf("filtered share %.3f, want about 0.25", share)
	}
	_, _, zipfIDs := count(genStream(testMeta, 1, 1.1, n))
	top := func(ids map[string]int) (best int) {
		for _, c := range ids {
			best = max(best, c)
		}
		return
	}
	// Uniform over 5000 ids, 11000 draws: no id comes up often. Zipf 1.1
	// gives the hottest company about an eighth of the draws.
	if top(uniformIDs) > 15 {
		t.Fatalf("uniform stream repeats one id %d times", top(uniformIDs))
	}
	if top(zipfIDs) < 500 {
		t.Fatalf("zipf stream's hottest id came up only %d times", top(zipfIDs))
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.51, 60}, {0.9, 90}, {0.99, 100}, {1, 100}, {0.05, 10}, {0, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
	// 1000 samples: p99 is the 990th, which leaves ten beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := quantile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{5, 1, 4, 2}); got != 2 {
		t.Errorf("median of four = %v, want the lower middle value 2", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([...], n=4) of these ten values.
	xs := []float64{607, 519.6, 540, 533, 575, 560, 551, 590, 528, 566}
	q1, q2, q3 := quartiles(xs)
	for i, c := range []struct{ got, want float64 }{{q1, 531.75}, {q2, 555.5}, {q3, 578.75}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("quartile %d = %v, want %v", i+1, c.got, c.want)
		}
	}
}

func TestReduceWindowsMedianIgnoresOneStall(t *testing.T) {
	// Five windows of one second, 100 requests of 2 ms each; the third window
	// holds a stall: half as many requests, each taking 30 ms.
	var samples []sample
	for w := 0; w < 5; w++ {
		n, lat := 100, 2*time.Millisecond
		if w == 2 {
			n, lat = 50, 30*time.Millisecond
		}
		for i := 0; i < n; i++ {
			done := time.Duration(w)*time.Second + time.Duration(i+1)*time.Second/time.Duration(n+1)
			samples = append(samples, sample{done: done, latency: lat, ok: true})
		}
	}
	// A failed request and one that completed after the last window.
	samples = append(samples, sample{done: 500 * time.Millisecond, latency: time.Second})
	samples = append(samples, sample{done: 5100 * time.Millisecond, latency: 90 * time.Millisecond, ok: true})

	// One request the open loop marked as held up by a host stall: it counts
	// as completed, but its latency stays out of the window's percentiles.
	samples = append(samples, sample{done: 3500 * time.Millisecond, latency: 70 * time.Millisecond, ok: true, stalled: true})

	r := reduceWindows(samples, 5, time.Second, 1, true)
	if r.QPS != 100 || r.P50ms != 2 || r.P99ms != 2 {
		t.Errorf("median of windows: qps %v p50 %v p99 %v, want 100, 2, 2", r.QPS, r.P50ms, r.P99ms)
	}
	if r.Windows[2].OK != 50 || r.Windows[2].P50ms != 30 {
		t.Errorf("stalled window: %+v", r.Windows[2])
	}
	if r.Windows[3].OK != 100 || r.Windows[3].QPS != 101 || r.Windows[3].P99ms != 2 || r.Stalled != 1 {
		t.Errorf("window with a host-stalled request: %+v, stalled %d", r.Windows[3], r.Stalled)
	}
	if r.MinWindowOK != 50 {
		t.Errorf("MinWindowOK = %d, want 50", r.MinWindowOK)
	}
	// The whole-span numbers keep what the windows hide.
	if r.P99WholeMs != 30 || r.MaxMs != 90 {
		t.Errorf("whole span: p99 %v max %v, want 30 and 90", r.P99WholeMs, r.MaxMs)
	}

	// A host that ran 1.5 times slower than its best: the closed loop's
	// numbers are put back to what the undisturbed host would have read; the
	// open loop's rate is its schedule's and stays.
	closed := reduceWindows(samples, 5, time.Second, 1.5, true)
	if closed.RawQPS != 100 || closed.QPS != 150 || closed.RawP50ms != 2 || math.Abs(closed.P50ms-2/1.5) > 1e-12 {
		t.Errorf("closed loop at slowdown 1.5: %+v", closed)
	}
	if open := reduceWindows(samples, 5, time.Second, 1.5, false); open.QPS != 100 || math.Abs(open.P99ms-2/1.5) > 1e-12 {
		t.Errorf("open loop at slowdown 1.5: qps %v p99 %v", open.QPS, open.P99ms)
	}
}

func TestHostMeterSlowdown(t *testing.T) {
	var none *hostMeter
	if none.slowdown() != 1 || none.burstIfDue() {
		t.Error("a nil meter must read 1 and never burst")
	}
	m := &hostMeter{burstNs: []float64{100, 100, 200, 200}}
	if got := m.slowdown(); got != 1.5 {
		t.Errorf("slowdown %v, want mean 150 over best 100", got)
	}
	live := &hostMeter{}
	if !live.burstIfDue() || live.burstIfDue() {
		t.Error("the first call bursts, the next one within burstEvery does not")
	}
}

// The open loop times a request from its due time and sends it no earlier
// than the answer before it has been read: behind a server slower than the
// schedule, lateness and latency must grow from request to request.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(15 * time.Millisecond)
		_, _ = w.Write([]byte(`{"matches":[]}`))
	}))
	defer srv.Close()
	client := newLoadClient()
	defer client.CloseIdleConnections()
	stream := []request{{Method: "GET", Path: "/v1/similar/1?k=5", K: 5}}
	const n = 8
	res := runLoad(context.Background(), client, srv.URL, stream, 0, loadSpec{rate: 100}, 0, n, nil, nil)
	if res.attempted != n || res.failed != 0 || !res.wrapped {
		t.Fatalf("attempted %d failed %d wrapped %v (%s)", res.attempted, res.failed, res.wrapped, res.firstErr)
	}
	for i, s := range res.samples {
		// Request i is due at i·10 ms and cannot go out before i·15 ms.
		if wantLate := time.Duration(i) * 5 * time.Millisecond; s.late < wantLate {
			t.Errorf("request %d: late %v, want at least %v", i, s.late, wantLate)
		}
		if s.latency < s.late+15*time.Millisecond {
			t.Errorf("request %d: latency %v does not count from the due time (late %v)", i, s.latency, s.late)
		}
	}
}

func TestCheckBody(t *testing.T) {
	similar := &request{Endpoint: 0, K: 2}
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"in order", `{"matches":[{"company_id":1,"similarity":0.9},{"company_id":2,"similarity":0.9}]}`, true},
		{"empty", `{"matches":[]}`, true},
		{"rising", `{"matches":[{"company_id":1,"similarity":0.8},{"company_id":2,"similarity":0.9}]}`, false},
		{"too many", `{"matches":[{"similarity":0.9},{"similarity":0.8},{"similarity":0.7}]}`, false},
		{"partial", `{"matches":[],"partial":true}`, false},
		{"not json", `{"matches":[`, false},
	} {
		if err := checkBody(similar, []byte(c.body)); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
	}
	// Recommendations are not capped by k.
	rec := &request{Endpoint: 1}
	if err := checkBody(rec, []byte(`{"recommendations":[{"strength":1},{"strength":0.4},{"strength":0.3}]}`)); err != nil {
		t.Error(err)
	}
}

func TestSelfTime(t *testing.T) {
	root := &treeSpan{Name: "serve.recommend", StartUS: 0, DurUS: 1000, Children: []*treeSpan{
		{Name: "core.recommend", StartUS: 100, DurUS: 700, Children: []*treeSpan{
			{Name: "core.topk", StartUS: 110, DurUS: 600, Children: []*treeSpan{
				{Name: "par.shard", StartUS: 120, DurUS: 300},
				{Name: "par.shard", StartUS: 420, DurUS: 280},
			}},
		}},
	}}
	if got := selfUS(root); got != 300 {
		t.Errorf("shell self time %d, want 300", got)
	}
	if got := selfUS(root.Children[0]); got != 100 {
		t.Errorf("core.recommend self time %d, want 100", got)
	}
	// par.* slices stay inside the scan that cut itself into them.
	if got := selfUS(root.Children[0].Children[0]); got != 600 {
		t.Errorf("core.topk self time %d, want 600", got)
	}
	// Overlapping children count once.
	overlap := &treeSpan{Name: "router.similar", DurUS: 100, Children: []*treeSpan{
		{Name: "a", StartUS: 10, DurUS: 50}, {Name: "b", StartUS: 40, DurUS: 40},
	}}
	if got := selfUS(overlap); got != 30 {
		t.Errorf("self time with overlapping children %d, want 30", got)
	}
}

func TestVerdict(t *testing.T) {
	qps := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	steady := func(m float64) setSummary { return setSummary{m * 0.99, m, m * 1.01} }
	if gap, ok := verdict(qps, steady(500), steady(460)); !ok || math.Abs(gap-0.08) > 1e-9 {
		t.Errorf("8%% lower qps: gap %v ok %v, want 0.08 within the bound", gap, ok)
	}
	if _, ok := verdict(qps, steady(500), steady(440)); ok {
		t.Error("12% lower qps passed a 10% bound")
	}
	if _, ok := verdict(qps, steady(500), steady(600)); !ok {
		t.Error("higher qps failed")
	}
	if _, ok := verdict(qps, setSummary{400, 500, 600}, steady(500)); ok {
		t.Error("a 40% spread passed a 10% bound")
	}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	if _, ok := verdict(setup, setSummary{1, 2, 3}, steady(2.2)); !ok {
		t.Error("set-up time is exempt from the spread rule")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the root of the repository
// in step with the tables in this package.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s / %s", i, file.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end to end, %d/%d per layer",
			len(file.EndToEnd), len(endToEnd), len(file.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		if got := file.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v, want %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		seen[d.Name] = true
	}
	for i, d := range perLayer {
		if got := file.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: %+v, want %+v", i, got, d)
		}
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}
