// Package router is the scatter-gather front end over a set of ibserve
// shards. Each shard runs `ibserve -shard i/n` and owns one hash partition
// of the candidate scans (the representations are replicated, so any shard
// can also score recommendation peers); the router fans every query out to
// all shards, carves each shard's deadline out of the request budget (with a
// reserve kept back for the merge), hedges stragglers after a quantile
// delay, merges the partial top-k lists under the exact core total order —
// so a fully healthy fan-out is byte-identical to an unsharded server — and
// degrades to a "partial": true response naming the missing shards when some
// of them are down instead of failing the whole query.
//
// Per-shard circuit breakers (consecutive-failure trip, half-open probe,
// exponential cooldown) stop a dead shard from costing one timeout per
// request, and a background /readyz probe loop treats a draining shard
// exactly like one with a tripped breaker. Router metrics (fan-out latency,
// hedges fired and won, breaker state, partial responses) report into the
// shared obs registry next to the serve metrics, under the router_ prefix.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

var partialTotal = obs.Default().Counter("router_partial_responses_total",
	"queries answered with partial results because at least one shard was missing")

// Config parameterizes a Router. Zero values select the documented defaults.
type Config struct {
	// Shards are the base URLs of the ibserve shards, in partition order:
	// Shards[i] must run with -shard i/len(Shards).
	Shards []string
	// Timeout is the whole-request budget; a timeout_ms query parameter can
	// shrink it per request but never extend it. Default 5s.
	Timeout time.Duration
	// MergeReserve is the fraction of the remaining budget kept back from
	// the shard deadline for merging and marshalling. Default 0.1.
	MergeReserve float64
	// HedgeQuantile places the hedge delay at this quantile of the shard's
	// recent answered latencies; a request still unanswered after the delay
	// gets a second identical attempt, first answer wins. Default 0.9;
	// negative disables hedging.
	HedgeQuantile float64
	// HedgeMin floors the hedge delay, so an idle window (or a very fast
	// shard) cannot make the router hedge every request. Default 20ms.
	HedgeMin time.Duration
	// BreakerThreshold is the consecutive shard failures that trip its
	// breaker open. Default 5.
	BreakerThreshold int
	// BreakerCooldown is the first open interval; each failed half-open
	// probe doubles it up to BreakerMaxCooldown. Defaults 500ms / 10s.
	BreakerCooldown    time.Duration
	BreakerMaxCooldown time.Duration
	// ProbeInterval is the cadence of the background /readyz shard probe;
	// a not-ready shard is skipped like one with an open breaker. Default
	// 1s; negative disables probing.
	ProbeInterval time.Duration
	// DefaultPeers mirrors the shards' recommendation peer count. It must
	// match the shard configuration for sharded answers to be
	// byte-identical. Default 25.
	DefaultPeers int
	// Logger receives access and degradation lines. Default slog.Default().
	Logger *slog.Logger
	// Tracer records request-scoped spans; the router joins an incoming W3C
	// traceparent and propagates one to every shard call.
	Tracer *trace.Tracer
	// SLO, when non-nil, tracks rolling router SLOs under the router_ metric
	// prefix, with /debug/slo served from Routes().
	SLO *api.SLOConfig
	// MaxBodyBytes caps request bodies on the POST endpoints; an oversized
	// body gets 413. Default 1 MiB (matching ibserve); negative disables the
	// cap.
	MaxBodyBytes int64
	// Quiet suppresses access-log lines for successful requests.
	Quiet bool
}

// validate refuses the settings no default stands for: a negative count or
// budget would fail every request that relies on it.
func (c Config) validate() error {
	switch {
	case c.DefaultPeers < 0:
		return fmt.Errorf("router: negative default peers %d", c.DefaultPeers)
	case c.Timeout < 0:
		return fmt.Errorf("router: negative request timeout %v", c.Timeout)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MergeReserve == 0 {
		c.MergeReserve = 0.1
	}
	if c.HedgeQuantile == 0 {
		c.HedgeQuantile = 0.9
	}
	if c.HedgeMin == 0 {
		c.HedgeMin = 20 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.BreakerMaxCooldown == 0 {
		c.BreakerMaxCooldown = 10 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.DefaultPeers == 0 {
		c.DefaultPeers = 25
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Tracer == nil {
		c.Tracer = trace.Default()
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxBodyBytes < 0 {
		c.MaxBodyBytes = 0
	}
	return c
}

// Router fans queries out to the shards and merges their answers.
type Router struct {
	cfg     Config
	shards  []*shard
	client  *http.Client
	mux     *http.ServeMux
	slo     *api.SLOTracker
	shell   api.Shell // request pipeline of the query endpoints + /readyz state
	started time.Time

	probeCancel context.CancelFunc
	probeDone   chan struct{}
}

// New builds a Router over the configured shard URLs.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: no shards configured")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rt := &Router{cfg: cfg, client: &http.Client{}, started: time.Now()}
	for i, base := range cfg.Shards {
		base = strings.TrimRight(base, "/")
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		if _, err := url.Parse(base); err != nil {
			return nil, fmt.Errorf("router: bad shard URL %q: %w", cfg.Shards[i], err)
		}
		sh := newShard(i, base)
		sh.br = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.BreakerMaxCooldown,
			obs.Default().Gauge(fmt.Sprintf("router_shard%d_breaker_state", i),
				fmt.Sprintf("breaker state of shard %d (0 closed, 1 half-open, 2 open)", i)))
		rt.shards = append(rt.shards, sh)
	}
	if cfg.SLO != nil {
		rt.slo = api.NewSLOTracker(*cfg.SLO, "router", []string{"similar", "recommend", "whitespace", "infer"})
	}
	rt.shell = api.Shell{
		Prefix:       "router",
		Timeout:      cfg.Timeout,
		MaxBodyBytes: cfg.MaxBodyBytes,
		Logger:       cfg.Logger,
		Tracer:       cfg.Tracer,
		Quiet:        cfg.Quiet,
		SLO:          rt.slo,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /readyz", rt.shell.HandleReady)
	mux.HandleFunc("GET /v1/similar/{id}", rt.shell.Endpoint("similar", rt.handleSimilar))
	mux.HandleFunc("GET /v1/recommend/{id}", rt.shell.Endpoint("recommend", rt.handleRecommend))
	mux.HandleFunc("POST /v1/whitespace", rt.shell.Endpoint("whitespace", rt.handleWhitespace))
	mux.HandleFunc("POST /v1/infer", rt.shell.Endpoint("infer", rt.handleInfer))
	rt.mux = mux
	if cfg.ProbeInterval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		rt.probeCancel = cancel
		rt.probeDone = make(chan struct{})
		go rt.probeLoop(ctx)
	}
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Routes returns the router's debug routes for the -debug-addr mux:
// /debug/slo when SLO tracking is on, and the always-mounted fleet recall
// view GET /debug/recall, which scatters to every shard's /debug/recall and
// aggregates a sample-weighted fleet observed recall (shards without shadow
// sampling report "sampling": false rather than erroring the view).
func (rt *Router) Routes() []obs.Route {
	return append(rt.slo.Routes(),
		obs.Route{Pattern: "GET /debug/recall", Handler: http.HandlerFunc(rt.handleFleetRecall)})
}

// SetReady flips /readyz, mirroring the shard-side drain protocol.
func (rt *Router) SetReady(ok bool) { rt.shell.SetReady(ok) }

// Close stops the probe loop and the SLO ticker.
func (rt *Router) Close() {
	if rt.probeCancel != nil {
		rt.probeCancel()
		<-rt.probeDone
	}
	rt.slo.Close()
}

// probeLoop polls every shard's /readyz so draining or dead shards are
// skipped before their breaker has to learn the hard way.
func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var wg sync.WaitGroup
			for _, sh := range rt.shards {
				wg.Add(1)
				go func(sh *shard) {
					defer wg.Done()
					pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeInterval)
					defer cancel()
					status, _, err := doRequest(pctx, rt.client, http.MethodGet, sh.base+"/readyz", nil, nil)
					sh.ready.Store(err == nil && status == http.StatusOK)
				}(sh)
			}
			wg.Wait()
		}
	}
}

type shardHealthJSON struct {
	Index   int    `json:"index"`
	Addr    string `json:"addr"`
	Ready   bool   `json:"ready"`
	Breaker string `json:"breaker"`
}

type healthResponse struct {
	Status    string            `json:"status"`
	Shards    []shardHealthJSON `json:"shards"`
	UptimeSec float64           `json:"uptime_seconds"`
	Tracing   bool              `json:"tracing"`
	SLO       *api.SLOHealth    `json:"slo,omitempty"`
}

var breakerNames = [...]string{"closed", "half-open", "open"}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := healthResponse{
		Status:    "ok",
		UptimeSec: time.Since(rt.started).Seconds(),
		Tracing:   rt.cfg.Tracer.Enabled(),
		SLO:       rt.slo.Health(),
	}
	for _, sh := range rt.shards {
		resp.Shards = append(resp.Shards, shardHealthJSON{
			Index:   sh.index,
			Addr:    sh.base,
			Ready:   sh.ready.Load(),
			Breaker: breakerNames[sh.br.State()],
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// shardContext carves the shard deadline out of the request budget, keeping
// MergeReserve of the remaining time back for merging and marshalling.
func (rt *Router) shardContext(ctx context.Context) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	reserve := time.Duration(float64(time.Until(dl)) * rt.cfg.MergeReserve)
	return context.WithDeadline(ctx, dl.Add(-reserve))
}

// hedgeDelay places the hedge for one shard call: the configured quantile of
// the shard's recent answered latencies, floored at HedgeMin and capped at
// half the remaining budget (a hedge fired later than that cannot finish).
func (rt *Router) hedgeDelay(ctx context.Context, sh *shard) time.Duration {
	if rt.cfg.HedgeQuantile < 0 {
		return 0
	}
	d := sh.lat.Quantile(rt.cfg.HedgeQuantile)
	if d < rt.cfg.HedgeMin {
		d = rt.cfg.HedgeMin
	}
	if dl, ok := ctx.Deadline(); ok {
		if half := time.Until(dl) / 2; d > half {
			d = half
		}
	}
	return d
}

// shardHeader builds the headers of a shard call: the W3C traceparent of the
// request's span, so shard-side span trees join the router's distributed
// trace, and the content type when the call carries a body.
func shardHeader(ctx context.Context, body []byte) http.Header {
	h := http.Header{}
	if body != nil {
		h.Set("Content-Type", "application/json")
	}
	if sp := trace.FromContext(ctx); sp.Active() {
		h.Set("traceparent", trace.FormatTraceparent(sp.TraceID(), sp.SpanID()))
	}
	return h
}

// callShard is one breaker-guarded shard call: skipped without a network
// round trip while the breaker is open, otherwise a hedged call whose outcome
// (transport error or 5xx = failure) feeds the breaker.
func (rt *Router) callShard(ctx context.Context, sh *shard, method, pathAndQuery string, body []byte, header http.Header) shardResult {
	ok, probe := sh.br.Allow(time.Now())
	if !ok {
		return shardResult{shard: sh.index, skipped: true}
	}
	res := sh.call(ctx, rt.client, method, sh.base+pathAndQuery, body, header, rt.hedgeDelay(ctx, sh))
	if res.err != nil || res.status >= 500 {
		sh.mFailures.Inc()
		sh.br.Failure(time.Now(), probe)
	} else {
		sh.br.Success(probe)
	}
	return res
}

// fanout sends one identical request to every ready shard and gathers the
// results in shard order; not-ready shards are marked skipped, like ones with
// an open breaker.
func (rt *Router) fanout(ctx context.Context, method, pathAndQuery string, body []byte) []shardResult {
	sctx, cancel := rt.shardContext(ctx)
	defer cancel()
	header := shardHeader(ctx, body)
	results := make([]shardResult, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		if !sh.ready.Load() {
			results[i] = shardResult{shard: i, skipped: true}
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			results[i] = rt.callShard(sctx, sh, method, pathAndQuery, body, header)
		}(i, sh)
	}
	wg.Wait()
	return results
}

// classify splits fan-out results: shards that answered 2xx, the first
// client-error (4xx) verdict if any, and the sorted missing-shard list.
func classify(results []shardResult) (oks []shardResult, clientErr *shardResult, missing []int) {
	for i := range results {
		r := &results[i]
		switch {
		case r.failed():
			missing = append(missing, r.shard)
		case r.status >= 400:
			if clientErr == nil {
				clientErr = r
			}
		default:
			oks = append(oks, *r)
		}
	}
	sort.Ints(missing)
	return oks, clientErr, missing
}

// gather is the fan-out every endpoint starts with: send the request to all
// shards, pass a shard's client-error verdict through verbatim (it means the
// request is bad, not the cluster), fail 502 when no shard answered, and
// otherwise let answer build the response from the 2xx bodies — it gets the
// degradation fields, already filled in, to marshal at the end of its body.
// A short fan-out is logged and counted once the answer stands.
func (rt *Router) gather(ctx context.Context, r *http.Request, method, pathAndQuery string, body []byte,
	answer func(oks []shardResult, deg api.Degraded) (api.Response, error)) (api.Response, error) {
	oks, clientErr, missing := classify(rt.fanout(ctx, method, pathAndQuery, body))
	if clientErr != nil {
		return api.Response{Status: clientErr.status, Body: clientErr.body}, nil
	}
	if len(oks) == 0 {
		if err := ctx.Err(); err != nil {
			// The request's own budget ran out, not the cluster: 504, as on
			// ibserve, rather than blaming the shards.
			return api.Response{}, fmt.Errorf("router: deadline expired before any shard answered: %w", err)
		}
		return api.Response{}, &api.Error{Status: http.StatusBadGateway,
			Err: fmt.Errorf("router: all %d shards unavailable (missing %v)", len(rt.shards), missing)}
	}
	resp, err := answer(oks, api.Degraded{Partial: len(missing) > 0, MissingShards: missing})
	if err == nil && len(resp.Missing) > 0 {
		rt.cfg.Logger.Warn("partial fan-out", "path", r.URL.Path, "missing", missing)
		partialTotal.Inc()
	}
	return resp, err
}

// render marshals a merged answer into the shell's response shape.
func render(value any, deg api.Degraded) (api.Response, error) {
	out, err := json.Marshal(value)
	if err != nil {
		return api.Response{}, &api.Error{Status: http.StatusInternalServerError, Err: err}
	}
	return api.Response{Body: append(out, '\n'), Missing: deg.MissingShards}, nil
}

func unparseable(shard int, err error) error {
	return &api.Error{Status: http.StatusBadGateway,
		Err: fmt.Errorf("router: shard %d sent an unparseable body: %w", shard, err)}
}

// mergeTopK decodes every shard's answer as an R and merges their result
// lists under better — the exact comparator the shard scans used, so the
// merged top k is the unsharded top k. The echoed fields (ids, names, theta)
// are identical on every shard and come from the first; k is the largest any
// shard echoed. fields names R's k, result list and degradation tail.
func mergeTopK[R, E any](oks []shardResult, deg api.Degraded, better func(a, b E) bool,
	fields func(*R) (k *int, list *[]E, deg *api.Degraded)) (R, error) {
	var merged R
	perShard := make([][]E, len(oks))
	for i, res := range oks {
		var v R
		if err := json.Unmarshal(res.body, &v); err != nil {
			return merged, unparseable(res.shard, err)
		}
		k, list, _ := fields(&v)
		perShard[i] = *list
		if i == 0 {
			merged = v
		} else if mk, _, _ := fields(&merged); *k > *mk {
			*mk = *k
		}
	}
	k, list, tail := fields(&merged)
	if *list = core.MergeTopK(perShard, *k, better); *list == nil {
		*list = []E{}
	}
	*tail = deg
	return merged, nil
}

// scatter is the single-phase endpoint: replay the request, body included, on
// every shard and answer with the merged top k.
func scatter[R, E any](ctx context.Context, rt *Router, r *http.Request, better func(a, b E) bool,
	fields func(*R) (*int, *[]E, *api.Degraded)) (api.Response, error) {
	var body []byte
	if r.Method == http.MethodPost {
		var err error
		if body, err = io.ReadAll(r.Body); err != nil {
			return api.Response{}, api.BodyError(err,
				"router: request body exceeds %d bytes", "router: reading request body: %v")
		}
	}
	return rt.gather(ctx, r, r.Method, r.URL.RequestURI(), body,
		func(oks []shardResult, deg api.Degraded) (api.Response, error) {
			merged, err := mergeTopK(oks, deg, better, fields)
			if err != nil {
				return api.Response{}, err
			}
			return render(merged, deg)
		})
}

func similarFields(v *api.SimilarResponse) (*int, *[]api.Match, *api.Degraded) {
	return &v.K, &v.Matches, &v.Degraded
}

func (rt *Router) handleSimilar(ctx context.Context, r *http.Request) (api.Response, error) {
	return scatter(ctx, rt, r, api.MatchBetter, similarFields)
}

func (rt *Router) handleWhitespace(ctx context.Context, r *http.Request) (api.Response, error) {
	return scatter(ctx, rt, r, api.ProspectBetter,
		func(v *api.WhitespaceResponse) (*int, *[]api.Prospect, *api.Degraded) {
			return &v.K, &v.Prospects, &v.Degraded
		})
}

func (rt *Router) handleInfer(ctx context.Context, r *http.Request) (api.Response, error) {
	return scatter(ctx, rt, r, api.MatchBetter,
		func(v *api.InferResponse) (*int, *[]api.Match, *api.Degraded) {
			return &v.K, &v.Matches, &v.Degraded
		})
}

// handleRecommend is the two-phase sharded recommendation: recommendation
// strengths normalize over the global peer set, so per-shard recommend
// answers cannot be merged. Phase 1 scatters /v1/similar with k=peers and
// merges the global peer list; phase 2 posts it to one healthy shard's
// /internal/recommend (every shard holds the full representations) which
// scores exactly the peers an unsharded server would have used.
func (rt *Router) handleRecommend(ctx context.Context, r *http.Request) (api.Response, error) {
	id := r.PathValue("id")
	if _, err := strconv.Atoi(id); err != nil {
		return api.Response{}, api.BadRequest("router: company id %q is not an integer", id)
	}
	q := r.URL.Query()
	peers := rt.cfg.DefaultPeers
	if v := q.Get("peers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return api.Response{}, api.BadRequest("router: parameter peers=%q is not an integer", v)
		}
		if n != 0 { // an explicit 0 means "default", as on the shards
			peers = n
		}
	}
	// Phase 1: global top-peers peer set under the request's filters.
	q.Del("peers")
	q.Del("timeout_ms")
	q.Set("k", strconv.Itoa(peers))
	return rt.gather(ctx, r, http.MethodGet, "/v1/similar/"+id+"?"+q.Encode(), nil,
		func(oks []shardResult, deg api.Degraded) (api.Response, error) {
			sim, err := mergeTopK(oks, deg, api.MatchBetter, similarFields)
			if err != nil {
				return api.Response{}, err
			}
			// Phase 2: the first healthy shard that answers scores the merged
			// peers, on a deadline carved from what phase 1 left.
			req := api.InternalRecommendRequest{CompanyID: sim.CompanyID, Peers: peers,
				Matches: make([]api.PeerMatch, len(sim.Matches))}
			for i, m := range sim.Matches {
				req.Matches[i] = api.PeerMatch{CompanyID: m.CompanyID, Similarity: m.Similarity}
			}
			raw, err := json.Marshal(req)
			if err != nil {
				return api.Response{}, &api.Error{Status: http.StatusInternalServerError, Err: err}
			}
			sctx, cancel := rt.shardContext(ctx)
			defer cancel()
			header := shardHeader(ctx, raw)
			for _, res := range oks {
				scored := rt.callShard(sctx, rt.shards[res.shard], http.MethodPost, "/internal/recommend", raw, header)
				if scored.failed() {
					continue
				}
				if scored.status >= 400 {
					return api.Response{Status: scored.status, Body: scored.body}, nil
				}
				var rec api.RecommendResponse
				if err := json.Unmarshal(scored.body, &rec); err != nil {
					return api.Response{}, unparseable(scored.shard, err)
				}
				if rec.Recommendations == nil {
					rec.Recommendations = []api.Recommendation{}
				}
				rec.Degraded = deg
				return render(rec, deg)
			}
			return api.Response{}, &api.Error{Status: http.StatusBadGateway,
				Err: errors.New("router: no shard could score the merged peer set")}
		})
}
