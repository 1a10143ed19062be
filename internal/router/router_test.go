package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lda"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The fixture corpus/model pair is trained once and shared; every server
// built from it constructs its own index, so partitioning never leaks
// between tests.
var fixtureOnce = sync.OnceValues(func() (*corpus.Corpus, *lda.Model) {
	cat := corpus.DefaultCatalog()
	m := cat.Size()
	countries := []string{"US", "DE", "GB"}
	companies := make([]corpus.Company, 40)
	for i := range companies {
		companies[i] = corpus.Company{
			ID:        i,
			Name:      fmt.Sprintf("co-%02d", i),
			Country:   countries[i%len(countries)],
			SIC2:      70 + i%4,
			Employees: 50 + i*37%900,
			RevenueM:  float64(5 + i*11%200),
			Acquisitions: []corpus.Acquisition{
				{Category: i % m, First: corpus.Month(i % 12)},
				{Category: (i*5 + 2) % m, First: corpus.Month(i%12 + 1)},
				{Category: (i*9 + 4) % m, First: corpus.Month(i%12 + 2)},
			},
		}
		companies[i].SortAcquisitions()
	}
	c := corpus.New(cat, companies)
	model, err := lda.TrainContext(context.Background(),
		lda.Config{Topics: 2, V: c.M(), BurnIn: 10, Iterations: 20, SampleLag: 5},
		c.Sets(), nil, rng.New(3))
	if err != nil {
		panic(err)
	}
	return c, model
})

// newShardServer stands up one serve.Server over the fixture, partitioned to
// part/parts (parts <= 1 builds the unsharded baseline). wrap, when non-nil,
// wraps the handler (e.g. to inject a fault) before listening.
func newShardServer(t *testing.T, part, parts int, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	c, model := fixtureOnce()
	reps := model.Representations(c.Sets(), rng.New(7))
	ix, err := core.NewIndex(c, reps, core.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	if parts > 1 {
		if err := ix.SetPartition(part, parts); err != nil {
			t.Fatal(err)
		}
	}
	s, err := serve.New(serve.Loaded{Index: ix, Model: model}, nil, serve.Config{Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// newCluster builds parts partitioned shards (wrap applies per shard index)
// and a router over them. Probing and hedging are off unless cfg sets them.
func newCluster(t *testing.T, parts int, cfg Config, wrap func(i int, h http.Handler) http.Handler) (*Router, *httptest.Server) {
	t.Helper()
	for i := 0; i < parts; i++ {
		var w func(http.Handler) http.Handler
		if wrap != nil {
			i := i
			w = func(h http.Handler) http.Handler { return wrap(i, h) }
		}
		cfg.Shards = append(cfg.Shards, newShardServer(t, i, parts, w).URL)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	if cfg.HedgeQuantile == 0 {
		cfg.HedgeQuantile = -1
	}
	cfg.Quiet = true
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func get(t *testing.T, base, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func post(t *testing.T, base, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func counterValue(name string) uint64 { return obs.Default().Counter(name, "").Value() }
func gaugeValue(name string) float64  { return obs.Default().Gauge(name, "").Value() }

// blackhole hangs every request, writing nothing, until the client gives up:
// a dead but connectable shard. It drains the body first, because the server
// notices a client leaving only through a background read that starts once
// the body is consumed; without the drain a POST would hang past its client.
var blackhole = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	<-r.Context().Done()
})

// straggle delays a seeded prob share of the requests reaching next by d and
// counts each delay in delays. The draws follow arrival order, so requests
// sent one at a time meet the same stragglers on every run.
func straggle(next http.Handler, seed int64, prob float64, d time.Duration, delays *atomic.Int64) http.Handler {
	var mu sync.Mutex
	g := rng.New(seed)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		slow := g.Bernoulli(prob)
		mu.Unlock()
		if slow {
			delays.Add(1)
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// TestPartialDegradation blackholes one shard and checks the router degrades
// instead of failing: 200, partial:true, the missing shard named, X-Partial
// set, and the surviving shards' results still merged in order.
func TestPartialDegradation(t *testing.T) {
	_, routed := newCluster(t, 3, Config{Timeout: 600 * time.Millisecond},
		func(i int, h http.Handler) http.Handler {
			if i == 1 {
				return blackhole
			}
			return h
		})

	partial0 := counterValue("router_partial_responses_total")
	resp, body := get(t, routed.URL, "/v1/similar/7?k=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blackholed shard should degrade, not fail: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Partial") != "true" {
		t.Error("partial response missing the X-Partial header")
	}
	var sim api.SimilarResponse
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatal(err)
	}
	if !sim.Partial {
		t.Error("partial response body lacks partial:true")
	}
	if len(sim.MissingShards) != 1 || sim.MissingShards[0] != 1 {
		t.Errorf("missing_shards = %v, want [1]", sim.MissingShards)
	}
	if len(sim.Matches) == 0 {
		t.Error("partial response should still carry the surviving shards' matches")
	}
	for i := 1; i < len(sim.Matches); i++ {
		if api.MatchBetter(sim.Matches[i], sim.Matches[i-1]) {
			t.Errorf("partial matches out of order at %d", i)
		}
	}
	if got := counterValue("router_partial_responses_total"); got != partial0+1 {
		t.Errorf("router_partial_responses_total delta = %d, want 1", got-partial0)
	}

	// POST fan-out degrades the same way.
	resp, body = post(t, routed.URL, "/v1/whitespace", `{"clients":[1,2],"k":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial whitespace: status %d: %s", resp.StatusCode, body)
	}
	var ws api.WhitespaceResponse
	if err := json.Unmarshal(body, &ws); err != nil {
		t.Fatal(err)
	}
	if !ws.Partial || len(ws.MissingShards) != 1 || ws.MissingShards[0] != 1 {
		t.Errorf("whitespace partial = %v missing %v, want true [1]", ws.Partial, ws.MissingShards)
	}

	// Two-phase recommend survives a missing shard too: peers merge from the
	// healthy shards and a healthy shard scores them.
	resp, body = get(t, routed.URL, "/v1/recommend/4?peers=8")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial recommend: status %d: %s", resp.StatusCode, body)
	}
	var rec api.RecommendResponse
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.Partial || len(rec.MissingShards) != 1 || rec.MissingShards[0] != 1 {
		t.Errorf("recommend partial = %v missing %v, want true [1]", rec.Partial, rec.MissingShards)
	}
}

// TestAllShardsDown checks the other edge: when nothing answers, the router
// fails loudly with 502 instead of inventing an empty result.
func TestAllShardsDown(t *testing.T) {
	_, routed := newCluster(t, 2, Config{Timeout: 400 * time.Millisecond},
		func(i int, h http.Handler) http.Handler { return blackhole })
	resp, body := get(t, routed.URL, "/v1/similar/7?k=5")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all shards blackholed: status %d, want 502: %s", resp.StatusCode, body)
	}
}

// TestHedgingCutsStragglerTail injects a 250ms delay into 10% of one shard's
// requests and checks hedged retries rescue the stragglers: the hedge fires
// at ~HedgeMin and a fresh attempt (90% likely fast) wins. A hedge can
// itself draw the injected delay, so the assertion is statistical — strictly
// fewer slow answers than injected delays — rather than on the single worst
// request, which would flake on a double draw.
func TestHedgingCutsStragglerTail(t *testing.T) {
	const injected = 250 * time.Millisecond
	var injectedDelays atomic.Int64
	_, routed := newCluster(t, 3, Config{
		Timeout:       5 * time.Second,
		HedgeQuantile: 0.75,
		HedgeMin:      5 * time.Millisecond,
	}, func(i int, h http.Handler) http.Handler {
		if i == 2 {
			return straggle(h, 9, 0.1, injected, &injectedDelays)
		}
		return h
	})

	hedges0 := counterValue("router_shard2_hedges_total")
	wins0 := counterValue("router_shard2_hedge_wins_total")
	var slow int
	for i := 0; i < 80; i++ {
		start := time.Now()
		resp, body := get(t, routed.URL, fmt.Sprintf("/v1/similar/%d?k=5", i%40))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if time.Since(start) >= injected {
			slow++
		}
	}
	if hedges := counterValue("router_shard2_hedges_total") - hedges0; hedges == 0 {
		t.Error("no hedges fired against the straggling shard")
	}
	if wins := counterValue("router_shard2_hedge_wins_total") - wins0; wins == 0 {
		t.Error("no hedge ever beat the straggler")
	}
	// Without hedging every injected delay would surface as a >=250ms
	// answer; with it, only the (rare) requests whose hedge also drew the
	// delay stay slow. Require hedging to rescue more than half.
	delays := int(injectedDelays.Load())
	if delays == 0 {
		t.Fatal("no delays injected — the straggler shard never straggled")
	}
	if 2*slow >= delays {
		t.Errorf("%d of %d injected straggles still answered >= %s — hedging rescued too few",
			slow, delays, injected)
	}
}

// TestHedgeLoserCancelled pins first-response-wins: once the hedge answers,
// the original in-flight request's context is cancelled rather than left
// running to completion.
func TestHedgeLoserCancelled(t *testing.T) {
	cancelled := make(chan struct{})
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-r.Context().Done() // original: hang until the router cancels us
			close(cancelled)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{\"ok\":true}\n"))
	}))
	defer ts.Close()

	sh := newShard(90, ts.URL)
	sh.br = newBreaker(5, time.Second, time.Second, obs.Default().Gauge("router_shard90_breaker_state", ""))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res := sh.call(ctx, &http.Client{}, http.MethodGet, ts.URL+"/x", nil, nil, 10*time.Millisecond)
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("hedged call failed: status %d err %v", res.status, res.err)
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("losing attempt was never cancelled after the hedge won")
	}
	if got := counterValue("router_shard90_hedge_wins_total"); got == 0 {
		t.Error("hedge win not counted")
	}
}

// TestBreakerUnit walks the breaker state machine: consecutive failures trip
// it, cooldown gates a single probe, a failed probe doubles the cooldown,
// and a successful probe closes it.
func TestBreakerUnit(t *testing.T) {
	g := obs.Default().Gauge("router_shard91_breaker_state", "")
	b := newBreaker(3, 100*time.Millisecond, 400*time.Millisecond, g)
	now := time.Now()

	for i := 0; i < 2; i++ {
		b.Failure(now, false)
	}
	if b.State() != breakerClosed {
		t.Fatal("breaker tripped before the threshold")
	}
	b.Failure(now, false)
	if b.State() != breakerOpen || g.Value() != breakerOpen {
		t.Fatalf("3 consecutive failures: state %d gauge %v, want open", b.State(), g.Value())
	}
	if ok, _ := b.Allow(now.Add(50 * time.Millisecond)); ok {
		t.Fatal("open breaker admitted a request before cooldown")
	}
	ok, probe := b.Allow(now.Add(150 * time.Millisecond))
	if !ok || !probe {
		t.Fatalf("cooldown elapsed: Allow = %v, %v, want probe", ok, probe)
	}
	if g.Value() != breakerHalfOpen {
		t.Fatalf("gauge %v during probe, want half-open", g.Value())
	}
	if ok, _ := b.Allow(now.Add(151 * time.Millisecond)); ok {
		t.Fatal("half-open breaker admitted a second request alongside the probe")
	}
	// Failed probe: re-open with doubled cooldown (200ms).
	t2 := now.Add(160 * time.Millisecond)
	b.Failure(t2, true)
	if b.State() != breakerOpen {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if ok, _ := b.Allow(t2.Add(150 * time.Millisecond)); ok {
		t.Fatal("re-opened breaker ignored the doubled cooldown")
	}
	ok, probe = b.Allow(t2.Add(250 * time.Millisecond))
	if !ok || !probe {
		t.Fatal("doubled cooldown elapsed but no probe admitted")
	}
	b.Success(true)
	if b.State() != breakerClosed || g.Value() != breakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if ok, probe := b.Allow(t2.Add(300 * time.Millisecond)); !ok || probe {
		t.Fatal("closed breaker should admit plain requests")
	}
}

// TestBreakerIsolatesFailingShard drives the breaker through the router:
// a 5xx-spewing shard trips its breaker after the threshold, requests stop
// reaching it (degraded partial answers continue), and once healed, the
// half-open probe closes the breaker and full answers resume.
func TestBreakerIsolatesFailingShard(t *testing.T) {
	var unhealthy atomic.Bool
	unhealthy.Store(true)
	var shardHits atomic.Int32
	_, routed := newCluster(t, 3, Config{
		Timeout:          2 * time.Second,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	}, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			shardHits.Add(1)
			if unhealthy.Load() {
				http.Error(w, "boom", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	})

	// Two failures trip the breaker (threshold 2); both answers degrade.
	for i := 0; i < 2; i++ {
		resp, body := get(t, routed.URL, "/v1/similar/7?k=5")
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Partial") != "true" {
			t.Fatalf("request %d against the failing shard: status %d partial %q: %s",
				i, resp.StatusCode, resp.Header.Get("X-Partial"), body)
		}
	}
	if got := gaugeValue("router_shard1_breaker_state"); got != breakerOpen {
		t.Fatalf("breaker state gauge = %v after threshold failures, want open (2)", got)
	}
	// While open, fan-outs skip the shard entirely.
	before := shardHits.Load()
	resp, _ := get(t, routed.URL, "/v1/similar/8?k=5")
	if resp.Header.Get("X-Partial") != "true" {
		t.Error("open breaker should still yield a partial answer")
	}
	if shardHits.Load() != before {
		t.Error("open breaker let a request through before cooldown")
	}

	// Heal the shard; after cooldown one probe goes through and closes it.
	unhealthy.Store(false)
	time.Sleep(60 * time.Millisecond)
	resp, body := get(t, routed.URL, "/v1/similar/9?k=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe request failed: %s", body)
	}
	if got := gaugeValue("router_shard1_breaker_state"); got != breakerClosed {
		t.Fatalf("breaker state gauge = %v after successful probe, want closed (0)", got)
	}
	resp, _ = get(t, routed.URL, "/v1/similar/10?k=5")
	if resp.Header.Get("X-Partial") != "" {
		t.Error("healed cluster still answering partially")
	}
}

// TestReadyzProbeSkipsDrainingShard checks the readiness loop: a shard that
// flips /readyz to 503 is skipped like a tripped breaker, without burning
// failures, and rejoins once ready again.
func TestReadyzProbeSkipsDrainingShard(t *testing.T) {
	var draining atomic.Bool
	rt, routed := newCluster(t, 3, Config{
		Timeout:       2 * time.Second,
		ProbeInterval: 20 * time.Millisecond,
	}, func(i int, h http.Handler) http.Handler {
		if i != 2 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" && draining.Load() {
				http.Error(w, `{"status":"draining"}`, http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	})

	draining.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for rt.shards[2].ready.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rt.shards[2].ready.Load() {
		t.Fatal("probe loop never noticed the draining shard")
	}
	resp, body := get(t, routed.URL, "/v1/similar/7?k=5")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Partial") != "true" {
		t.Fatalf("draining shard: status %d partial %q: %s", resp.StatusCode, resp.Header.Get("X-Partial"), body)
	}
	if got := gaugeValue("router_shard2_breaker_state"); got != breakerClosed {
		t.Errorf("skipping a draining shard should not trip its breaker (gauge %v)", got)
	}

	draining.Store(false)
	deadline = time.Now().Add(2 * time.Second)
	for !rt.shards[2].ready.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	resp, _ = get(t, routed.URL, "/v1/similar/8?k=5")
	if resp.Header.Get("X-Partial") != "" {
		t.Error("re-readied shard still being skipped")
	}
}

// TestRouterHealthAndReadyz covers the router's own health surface.
func TestRouterHealthAndReadyz(t *testing.T) {
	rt, routed := newCluster(t, 3, Config{}, nil)
	resp, body := get(t, routed.URL, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Shards) != 3 {
		t.Fatalf("healthz = %+v, want ok with 3 shards", h)
	}
	for i, sh := range h.Shards {
		if sh.Index != i || !sh.Ready || sh.Breaker != "closed" {
			t.Errorf("shard %d health = %+v", i, sh)
		}
	}
	resp, _ = get(t, routed.URL, "/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz status %d", resp.StatusCode)
	}
	rt.SetReady(false)
	resp, body = get(t, routed.URL, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining /readyz = %d %q", resp.StatusCode, body)
	}
}

// TestMergeTruncation checks the merge respects the echoed k: shards each
// return up to k matches, and the merged list is cut back to k, not 3k.
func TestMergeTruncation(t *testing.T) {
	_, routed := newCluster(t, 3, Config{}, nil)
	_, body := get(t, routed.URL, "/v1/similar/5?k=7")
	var sim api.SimilarResponse
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.K != 7 || len(sim.Matches) != 7 {
		t.Fatalf("k=7 merge returned k=%d with %d matches", sim.K, len(sim.Matches))
	}
}

// TestBodyCapReturns413 pins the request-body cap: an oversized POST body is
// rejected with 413 (counted as an endpoint error) before any shard fan-out,
// while an in-bounds body on the same router still answers.
func TestBodyCapReturns413(t *testing.T) {
	_, routed := newCluster(t, 2, Config{MaxBodyBytes: 256}, nil)

	before := counterValue("router_whitespace_errors_total")
	big := `{"clients":[1],"pad":"` + strings.Repeat("x", 1024) + `"}`
	resp, body := post(t, routed.URL, "/v1/whitespace", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized whitespace body: status %d %q, want 413", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "256") {
		t.Errorf("413 error body %q does not name the cap", body)
	}
	if got := counterValue("router_whitespace_errors_total") - before; got != 1 {
		t.Errorf("router_whitespace_errors_total rose by %d, want 1", got)
	}

	beforeInfer := counterValue("router_infer_errors_total")
	resp, _ = post(t, routed.URL, "/v1/infer", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized infer body: status %d, want 413", resp.StatusCode)
	}
	if got := counterValue("router_infer_errors_total") - beforeInfer; got != 1 {
		t.Errorf("router_infer_errors_total rose by %d, want 1", got)
	}

	// An in-bounds body on the same router still fans out and answers.
	resp, body = post(t, routed.URL, "/v1/whitespace", `{"clients":[1,5],"k":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-bounds whitespace body: status %d %q", resp.StatusCode, body)
	}
}

// TestNewRejectsNegativeConfig pins New's refusal of settings no default
// stands for: a negative peer count or timeout failed every request that
// relied on the default, and a merge reserve of 1 or more (or NaN) answered
// every request 502 because each shard deadline had already passed.
func TestNewRejectsNegativeConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"peers", Config{DefaultPeers: -1}},
		{"timeout", Config{Timeout: -time.Second}},
		{"merge-reserve-1", Config{MergeReserve: 1}},
		{"merge-reserve-1.5", Config{MergeReserve: 1.5}},
		{"merge-reserve-negative", Config{MergeReserve: -0.1}},
		{"merge-reserve-nan", Config{MergeReserve: math.NaN()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Shards = []string{"localhost:1"}
			if rt, err := New(tc.cfg); err == nil {
				rt.Close()
				t.Fatalf("New accepted %+v", tc.cfg)
			}
		})
	}
}

// TestRouterLatencyExemplarAndTraceRoutes covers two observability contracts
// at once: a traced request must leave its trace ID as a bucket exemplar on
// the router_*_latency_seconds histogram, and the same trace must be
// inspectable through the trace debug routes that ibrouter mounts on its
// -debug-addr (list filtered by the router.similar root span, then resolved
// by ID).
func TestRouterLatencyExemplarAndTraceRoutes(t *testing.T) {
	tr := trace.NewTracer(64)
	tr.SetEnabled(true)
	tr.SetSampleRate(1)
	_, ts := newCluster(t, 2, Config{Tracer: tr}, nil)

	resp, _ := get(t, ts.URL, "/v1/similar/3?k=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("similar status = %d, want 200", resp.StatusCode)
	}
	traceID := resp.Header.Get("traceparent")
	if len(traceID) < 35 {
		t.Fatalf("traceparent header = %q, want a W3C traceparent", traceID)
	}
	traceID = traceID[3:35] // 00-<32 hex trace id>-...

	hs, ok := obs.Default().Snapshot().Histograms["router_similar_latency_seconds"]
	if !ok {
		t.Fatal("router_similar_latency_seconds not registered")
	}
	found := false
	for _, ex := range hs.Exemplars {
		if ex.TraceID == traceID {
			found = true
		}
	}
	if !found {
		t.Errorf("no exemplar with trace %s on router_similar_latency_seconds: %+v", traceID, hs.Exemplars)
	}

	// The trace routes ibrouter serves on -debug-addr resolve the same trace.
	mux := http.NewServeMux()
	for _, rtr := range trace.Routes(tr) {
		mux.Handle(rtr.Pattern, rtr.Handler)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?endpoint=router.similar", nil))
	var list []trace.Summary
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("unmarshal /debug/traces: %v", err)
	}
	if len(list) == 0 {
		t.Fatal("/debug/traces?endpoint=router.similar is empty, want the traced request")
	}
	found = false
	for _, s := range list {
		if s.TraceID == traceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s absent from /debug/traces list %+v", traceID, list)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/"+traceID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces/%s status = %d, want 200", traceID, rec.Code)
	}
}
