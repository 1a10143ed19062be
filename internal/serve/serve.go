// Package serve implements the HTTP query service over the Section 6
// similarity index — the paper's deployed sales tool, which "allows for
// searching companies similar to a given company" with business filters,
// gap-based product recommendations and white-space prospecting, exposed as
// a JSON API a load balancer can sit in front of.
//
// The server wraps one atomically swappable serving state (index + model +
// response cache) behind four query endpoints and one admin endpoint:
//
//	GET  /v1/similar/{id}    top-k similar companies
//	GET  /v1/recommend/{id}  gap-based product recommendations
//	POST /v1/whitespace      white-space prospects for a client set
//	POST /v1/infer           score an out-of-corpus company (fold-in inference)
//	POST /admin/reload       hot-swap the model/index, invalidating the cache
//	GET  /healthz            liveness + loaded-state shape
//
// Every query endpoint accepts the core.Filter fields (sic2, country,
// min_employees, max_employees, min_revenue_m, max_revenue_m) as URL query
// parameters (GET) or a "filter" JSON object (POST), runs under a
// per-request deadline threaded into the sharded index scans, and passes
// through a bounded-concurrency semaphore so a traffic spike degrades into
// fast 503s instead of unbounded goroutine pile-up. Per-endpoint counters
// and latency histograms report into the shared obs registry, which the
// ibserve binary exposes on its -debug-addr listener; served requests and
// failures are counted disjointly (serve_*_requests_total vs
// serve_*_errors_total), matching the corrected core metric semantics.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/lda"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/shadow"
	"repro/internal/trace"
)

// Server-wide metrics. Per-endpoint series are created by api.Shell.Endpoint.
var (
	inflight = obs.Default().Gauge("serve_inflight_requests",
		"query requests currently executing inside the concurrency semaphore")
	throttled = obs.Default().Counter("serve_throttled_total",
		"query requests rejected 503 because the semaphore stayed full until the request deadline")
	reloadsTotal = obs.Default().Counter("serve_reloads_total",
		"successful hot model reloads (each swaps the index and empties the cache)")
)

// Config parameterizes a Server. Zero values select the documented defaults.
type Config struct {
	// DefaultK is the result count when a request omits k. Default 10.
	DefaultK int
	// DefaultPeers is the peer count consulted by /v1/recommend when the
	// request omits peers. Default 25, the ibrec default.
	DefaultPeers int
	// MaxConcurrent bounds the query requests executing at once, sized like
	// the par worker pool by default (par.Workers()); excess requests wait
	// until their deadline and then fail fast with 503.
	MaxConcurrent int
	// Timeout is the per-request deadline threaded into the index scans.
	// Default 5s.
	Timeout time.Duration
	// CacheSize is the LRU response-cache capacity in entries. Default 256;
	// negative disables caching.
	CacheSize int
	// MaxBodyBytes caps the request bodies of the POST endpoints
	// (/v1/whitespace, /v1/infer, /admin/reload); an oversized body fails
	// with 413 and counts toward the endpoint's serve_*_errors_total.
	// Default 1 MiB; negative disables the cap.
	MaxBodyBytes int64
	// Seed drives the fold-in inference RNG of /v1/infer. Each request uses
	// a fresh stream seeded here, so identical requests get identical
	// representations regardless of interleaving. Default 1.
	Seed int64
	// Logger receives access, slow-query, request-failure and reload lines.
	// Default slog.Default().
	Logger *slog.Logger
	// Tracer records request-scoped span trees when enabled (trace.Default()
	// when nil). Disabled tracing leaves every response and every serve/core
	// metric exactly as before — spans take the nil fast path.
	Tracer *trace.Tracer
	// Quiet suppresses the per-request access-log lines for successful
	// requests; failed requests (status >= 400) and slow queries are still
	// logged.
	Quiet bool
	// SLO, when non-nil, enables rolling-window SLO tracking: per-endpoint
	// windowed latency quantiles, error budgets and burn rates served on
	// GET /debug/slo (mount SLORoutes on the debug mux) and summarized in
	// /healthz. Nil keeps the disabled path inert: no ticker goroutine, no
	// extra metrics, byte-identical responses.
	SLO *api.SLOConfig
	// Shadow, when non-nil with SampleN >= 1, enables shadow-sampled
	// exact-vs-ANN quality observability: 1 in SampleN ANN-served similar and
	// whitespace cache misses are re-executed as exact scans off the critical
	// path (bounded queue, dedicated worker, drop-and-count on saturation)
	// and diffed against the served answer into the ann_observed_recall
	// window, GET /debug/recall, and the /admin/reload canary. Nil keeps the
	// disabled path inert like SLO: no goroutine, no metric registrations,
	// byte-identical responses.
	Shadow *shadow.Config
	// ReloadGuard, when positive, makes /admin/reload refuse the generation
	// swap if the shadow canary's mean result-set Jaccard between the serving
	// and incoming generations falls below it (409 Conflict; the incoming
	// generation is closed). Requires Shadow; zero (the default) reports the
	// canary diff without ever refusing.
	ReloadGuard float64
}

func (c Config) withDefaults() Config {
	if c.DefaultK == 0 {
		c.DefaultK = 10
	}
	if c.DefaultPeers == 0 {
		c.DefaultPeers = 25
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = par.Workers()
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxBodyBytes < 0 {
		c.MaxBodyBytes = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Tracer == nil {
		c.Tracer = trace.Default()
	}
	return c
}

// Loaded is one complete serving generation as produced by a Loader: the
// index, the optional model behind /v1/infer, and an optional Close that
// releases whatever backs their memory — for an IBSNAP v2 model that is the
// munmap of the mapping the matrices alias. Close runs only after the last
// in-flight request against the generation finishes (see state.release);
// leave it nil for heap-resident generations.
//
// BuildLog is key/value pairs the loader wants on the log line that
// announces the generation ("model reloaded"); ibserve puts the durations of
// its build stages there so a slow reload says where it went.
type Loaded struct {
	Index    *core.Index
	Model    *lda.Model
	Close    func() error
	BuildLog []any
}

// Loader rebuilds the serving state from the backing store; /admin/reload
// invokes it and atomically installs the result. The model may be nil when
// the deployment does not serve /v1/infer.
type Loader func(ctx context.Context) (Loaded, error)

var generationCloseErrors = obs.Default().Counter("serve_generation_close_errors_total",
	"serving generations whose Close (munmap) failed on release")

// state is one immutable serving generation: queries load it once at entry
// and keep using it even if a reload swaps the pointer mid-request, so hot
// reloads never disturb in-flight work. gen numbers generations from 1 so
// access logs and /healthz can attribute a response to the reload that
// produced its index.
//
// A generation is refcounted because its matrices may alias an mmap: refs
// starts at 1 (the reference held by Server.cur), every request holds one
// for its duration, and the close func (munmap) runs exactly when the count
// hits zero — after a reload swapped the generation out AND the last
// in-flight request against it finished.
type state struct {
	ix    *core.Index
	model *lda.Model
	cache *lru
	gen   uint64
	refs  atomic.Int64
	close func() error // nil for heap-resident generations
}

// acquire takes a reference, failing if the generation is already dead
// (refs hit zero — its mapping may be unmapped). The CAS loop is what makes
// the load-then-acquire window in Server.current safe: an increment from
// zero is impossible, so a request can never resurrect a generation whose
// munmap already ran.
func (st *state) acquire() bool {
	for {
		n := st.refs.Load()
		if n == 0 {
			return false
		}
		if st.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference and closes the generation's backing (munmap)
// when the last reference goes. Close errors cannot be surfaced to any
// request — the generation is already gone — so they count in a metric.
func (st *state) release() {
	if st.refs.Add(-1) == 0 && st.close != nil {
		if err := st.close(); err != nil {
			generationCloseErrors.Inc()
		}
	}
}

// current returns the live generation with a reference held; the caller
// must release() it. The retry terminates because a failed acquire means
// either a reload both swapped cur and dropped the old generation's birth
// reference in between — the next Load observes the new pointer — or
// Server.Close dropped the final generation's birth reference, in which
// case cur never changes again: current returns nil and the caller must
// answer 503 rather than touch a possibly-unmapped generation. (Close
// stores closed before releasing, so a failed acquire against the closed
// server always observes the flag.)
func (s *Server) current() *state {
	for {
		if st := s.cur.Load(); st.acquire() {
			return st
		}
		if s.closed.Load() {
			return nil
		}
	}
}

// Server answers similarity, recommendation, white-space and inference
// queries over an atomically swappable core.Index.
type Server struct {
	cfg     Config
	load    Loader
	cur     atomic.Pointer[state]
	sem     chan struct{}
	mux     *http.ServeMux
	started time.Time
	gens    atomic.Uint64   // generation counter; the live state carries its value
	slo     *api.SLOTracker // nil when Config.SLO is nil (SLO tracking off)
	shadow  *shadow.Sampler // nil when Config.Shadow is nil (shadow sampling off)
	closed  atomic.Bool     // Close ran; guards the current generation's release
	shell   api.Shell       // request pipeline of the query endpoints + /readyz state
	mReload api.EndpointMetrics
}

// New builds a Server over an already-loaded generation. init.Model may be
// nil (then /v1/infer answers 501); load may be nil (then /admin/reload
// answers 501). init.Close, when set, runs once the initial generation has
// been swapped out by a reload and drained.
func New(init Loaded, load Loader, cfg Config) (*Server, error) {
	ix, model := init.Index, init.Model
	if ix == nil {
		return nil, errors.New("serve: nil index")
	}
	cfg = cfg.withDefaults()
	if err := checkState(ix, model); err != nil {
		return nil, err
	}
	registerBuildInfo()
	s := &Server{
		cfg:     cfg,
		load:    load,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		started: time.Now(),
		mReload: api.NewEndpointMetrics("serve", "reload"),
	}
	if cfg.Shadow != nil && cfg.Shadow.SampleN >= 1 {
		s.shadow = shadow.New(*cfg.Shadow)
	}
	if cfg.SLO != nil {
		s.slo = api.NewSLOTracker(*cfg.SLO, "serve", []string{"similar", "recommend", "whitespace", "infer"})
		if s.shadow != nil {
			s.slo.SetRecallSource(s.shadow)
		}
	}
	s.shell = api.Shell{
		Prefix:       "serve",
		Timeout:      cfg.Timeout,
		MaxBodyBytes: cfg.MaxBodyBytes,
		Logger:       cfg.Logger,
		Tracer:       cfg.Tracer,
		Quiet:        cfg.Quiet,
		SLO:          s.slo,
		Generation:   func() uint64 { return s.cur.Load().gen },
	}
	first := &state{ix: ix, model: model, cache: newLRU(cfg.CacheSize), gen: s.gens.Add(1), close: init.Close}
	first.refs.Store(1)
	s.cur.Store(first)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.shell.HandleReady)
	mux.HandleFunc("GET /v1/similar/{id}", s.shell.Endpoint("similar", s.admit(s.handleSimilar)))
	mux.HandleFunc("GET /v1/recommend/{id}", s.shell.Endpoint("recommend", s.admit(s.handleRecommend)))
	mux.HandleFunc("POST /v1/whitespace", s.shell.Endpoint("whitespace", s.admit(s.handleWhitespace)))
	mux.HandleFunc("POST /v1/infer", s.shell.Endpoint("infer", s.admit(s.handleInfer)))
	mux.HandleFunc("POST /internal/recommend", s.shell.Endpoint("recommend", s.admit(s.handleInternalRecommend)))
	mux.HandleFunc("POST /admin/reload", s.handleReload)
	// With shadow sampling on, /debug/recall also mounts on the main mux so
	// routers and load generators — which only know the serving address —
	// can scrape observed recall; off, the route set is unchanged.
	for _, rt := range s.shadow.Routes() {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	s.mux = mux
	return s, nil
}

// SetReady flips the /readyz state; see api.Shell.SetReady for the drain
// protocol.
func (s *Server) SetReady(ok bool) { s.shell.SetReady(ok) }

// Ready reports the /readyz state.
func (s *Server) Ready() bool { return s.shell.Ready() }

// buildInfo is resolved once: the Go toolchain, main-module version and VCS
// revision baked into the binary, reported by /healthz and mirrored as the
// ib_build_info gauge.
type buildInfoJSON struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
}

var readBuildInfo = sync.OnceValue(func() buildInfoJSON {
	out := buildInfoJSON{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out.Module = bi.Main.Path
	out.Version = bi.Main.Version
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			out.Revision = kv.Value
		}
	}
	return out
})

// registerBuildInfo publishes the constant-1 ib_build_info gauge whose help
// string carries the build identity (the registry has no labels, so the
// metadata rides in the metric help, Prometheus build_info style).
var registerBuildInfo = sync.OnceFunc(func() {
	bi := readBuildInfo()
	obs.Default().Gauge("ib_build_info",
		fmt.Sprintf("build info (constant 1): go_version=%s module=%s version=%s vcs_revision=%s",
			bi.GoVersion, bi.Module, bi.Version, bi.Revision)).Set(1)
})

// checkState validates that a (index, model) pair can serve together: the
// index rows must be the model's topic mixtures for /v1/infer to search
// them with an inferred theta.
func checkState(ix *core.Index, model *lda.Model) error {
	if model == nil {
		return nil
	}
	if ix.Reps.Cols != model.K {
		return fmt.Errorf("serve: index dimension %d does not match model topics %d", ix.Reps.Cols, model.K)
	}
	if ix.Corpus.M() != model.V {
		return fmt.Errorf("serve: corpus has %d categories, model %d", ix.Corpus.M(), model.V)
	}
	return nil
}

// Handler returns the service's HTTP handler, ready to mount on a listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Index returns the current serving index (the generation new requests see).
func (s *Server) Index() *core.Index { return s.cur.Load().ix }

// bodyError classifies a request-body decode failure in ibserve's wording.
func bodyError(endpoint string, err error) error {
	return api.BodyError(err,
		"serve: "+endpoint+" request body exceeds the %d-byte limit",
		"serve: bad "+endpoint+" request body: %v")
}

// response is one handler result: either pre-marshalled bytes (cache hit)
// or a value to marshal, optionally stored under cacheKey afterwards.
type response struct {
	value    any
	raw      []byte
	cacheKey string
}

type handlerFunc func(ctx context.Context, st *state, r *http.Request) (response, error)

// admit adapts a query handler to the shared request shell (api.Shell) with
// the three things only ibserve has: admission through the bounded-concurrency
// semaphore (acquisition races the request deadline, so a saturated server
// answers 503 instead of queueing), a reference on the serving generation for
// the handler's duration, and marshalling with cache fill for cacheable
// answers.
func (s *Server) admit(h handlerFunc) api.Handler {
	return func(ctx context.Context, r *http.Request) (api.Response, error) {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			throttled.Inc()
			return api.Response{}, &api.Error{Status: http.StatusServiceUnavailable,
				Err: errors.New("serve: saturated, retry later")}
		}
		defer func() { <-s.sem }()
		inflight.Add(1)
		defer inflight.Add(-1)

		// Hold a reference on the generation while the handler reads it: a
		// reload swapping it out must not munmap its matrices under our feet.
		// The rendered body is heap bytes, safe to write after the release.
		st := s.current()
		if st == nil {
			return api.Response{}, errClosed
		}
		defer st.release()
		resp, err := h(ctx, st, r)
		if err != nil {
			return api.Response{}, err
		}
		body := resp.raw
		if body == nil {
			if body, err = json.Marshal(resp.value); err != nil {
				return api.Response{}, &api.Error{Status: http.StatusInternalServerError, Err: err}
			}
			body = append(body, '\n')
			if resp.cacheKey != "" {
				st.cache.put(resp.cacheKey, body)
			}
		}
		return api.Response{Body: body}, nil
	}
}

// errClosed answers requests that arrive after Server.Close released the
// last generation.
var errClosed = &api.Error{Status: http.StatusServiceUnavailable, Err: errors.New("serve: server closed")}

// filterFromQuery parses the core.Filter fields from URL query parameters.
func filterFromQuery(q url.Values) (core.Filter, error) {
	var f core.Filter
	var err error
	if f.SIC2, err = intParam(q, "sic2"); err != nil {
		return f, err
	}
	f.Country = q.Get("country")
	if f.MinEmployees, err = intParam(q, "min_employees"); err != nil {
		return f, err
	}
	if f.MaxEmployees, err = intParam(q, "max_employees"); err != nil {
		return f, err
	}
	if f.MinRevenueM, err = floatParam(q, "min_revenue_m"); err != nil {
		return f, err
	}
	if f.MaxRevenueM, err = floatParam(q, "max_revenue_m"); err != nil {
		return f, err
	}
	return f, nil
}

func intParam(q url.Values, name string) (int, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, api.BadRequest("serve: parameter %s=%q is not an integer", name, v)
	}
	return n, nil
}

func floatParam(q url.Values, name string) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, api.BadRequest("serve: parameter %s=%q is not a number", name, v)
	}
	return x, nil
}

// pathID parses the {id} path segment.
func pathID(r *http.Request) (int, error) {
	raw := r.PathValue("id")
	id, err := strconv.Atoi(raw)
	if err != nil {
		return 0, api.BadRequest("serve: company id %q is not an integer", raw)
	}
	return id, nil
}

type healthResponse struct {
	Status     string         `json:"status"`
	Companies  int            `json:"companies"`
	Dim        int            `json:"dim"`
	Topics     int            `json:"topics,omitempty"`
	Vocab      int            `json:"vocab"`
	Cached     int            `json:"cached"`
	Generation uint64         `json:"generation"`
	UptimeSec  float64        `json:"uptime_seconds"`
	Tracing    bool           `json:"tracing"`
	Build      buildInfoJSON  `json:"build"`
	SLO        *api.SLOHealth `json:"slo,omitempty"` // present only with SLO tracking on
	// Partition is present only on a shard-mode server (ibserve -shard i/n):
	// which slice of the corpus this process's candidate scans own.
	Partition *partitionJSON `json:"partition,omitempty"`
	// ANN is present only when an approximate candidate router is installed
	// (ibserve -ann): the coarse index shape the scans prune through.
	ANN *annJSON `json:"ann,omitempty"`
	// Shadow is present only with shadow sampling on (-shadow-sample): the
	// live observed-recall summary (full detail at GET /debug/recall).
	Shadow *shadowHealthJSON `json:"shadow,omitempty"`
}

// shadowHealthJSON is the one-line shadow summary folded into /healthz when
// sampling is on; omitted (nil pointer, omitempty) when off so the disabled
// path's /healthz body is byte-identical.
type shadowHealthJSON struct {
	SampleOneIn    int     `json:"sample_one_in"`
	ObservedRecall float64 `json:"observed_recall"`
	WindowSamples  uint64  `json:"window_samples"`
}

type partitionJSON struct {
	Index     int `json:"index"`
	Of        int `json:"of"`
	Companies int `json:"companies"` // companies this partition owns
}

type annJSON struct {
	Cells  int  `json:"cells"`
	NProbe int  `json:"nprobe"`
	Mapped bool `json:"mapped"` // index opened zero-copy from an IBSNAP v2 mmap
}

type reloadResponse struct {
	Companies   int    `json:"companies"`
	Dim         int    `json:"dim"`
	Topics      int    `json:"topics,omitempty"`
	Invalidated int    `json:"invalidated"`
	Generation  uint64 `json:"generation"`
	Reloaded    bool   `json:"reloaded"`
	// Canary is present only when shadow sampling had queries to replay: the
	// generation diff measured against the incoming state before the swap.
	Canary *shadow.GenerationDiff `json:"canary,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Hold a reference like the query paths do: the index reads here must
	// not race a reload releasing the generation's mmap. A bare s.cur.Load()
	// could observe a generation whose last reference — and mapping — is
	// being dropped concurrently.
	st := s.current()
	if st == nil { // Server.Close ran; the last generation is gone
		api.WriteError(w, r, s.cfg.Logger, errClosed.Status, errClosed)
		return
	}
	defer st.release()
	resp := healthResponse{
		Status:     "ok",
		Companies:  st.ix.Corpus.N(),
		Dim:        st.ix.Reps.Cols,
		Vocab:      st.ix.Corpus.M(),
		Cached:     st.cache.len(),
		Generation: st.gen,
		UptimeSec:  time.Since(s.started).Seconds(),
		Tracing:    s.cfg.Tracer.Enabled(),
		Build:      readBuildInfo(),
		SLO:        s.slo.Health(),
	}
	if st.model != nil {
		resp.Topics = st.model.K
	}
	if part, parts := st.ix.Partition(); parts > 1 {
		resp.Partition = &partitionJSON{Index: part, Of: parts, Companies: st.ix.OwnedCompanies()}
	}
	if p := st.ix.Pruner(); p != nil {
		info := p.Info()
		resp.ANN = &annJSON{Cells: info.Cells, NProbe: info.NProbe, Mapped: info.Mapped}
	}
	if s.shadow != nil {
		mean, n := s.shadow.ObservedRecall()
		resp.Shadow = &shadowHealthJSON{
			SampleOneIn:    s.cfg.Shadow.SampleN,
			ObservedRecall: mean,
			WindowSamples:  n,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) matches(st *state, ms []core.Match) []api.Match {
	out := make([]api.Match, len(ms))
	for i, m := range ms {
		out[i] = api.Match{
			CompanyID:  m.CompanyID,
			Name:       st.ix.Corpus.Companies[m.CompanyID].Name,
			Similarity: m.Similarity,
		}
	}
	return out
}

// shadowMatches and shadowProspects convert core answers into the shadow
// package's generation-neutral result shape.
func shadowMatches(ms []core.Match) []shadow.Result {
	out := make([]shadow.Result, len(ms))
	for i, m := range ms {
		out[i] = shadow.Result{ID: int64(m.CompanyID), Score: m.Similarity}
	}
	return out
}

func shadowProspects(ps []core.WhitespaceProspect) []shadow.Result {
	out := make([]shadow.Result, len(ps))
	for i, p := range ps {
		out[i] = shadow.Result{ID: int64(p.CompanyID), Score: p.Similarity}
	}
	return out
}

// shadowScan re-executes a sampled query against ix through the index's
// configured scan path — exact when ix carries no pruner (the shadow
// re-execution and the canary's exact leg), ANN when it does (the canary's
// served leg).
func shadowScan(ctx context.Context, ix *core.Index, q shadow.Query) ([]shadow.Result, error) {
	if q.Kind == "whitespace" {
		ps, err := ix.WhitespaceContext(ctx, q.Clients, q.K, q.Filter)
		if err != nil {
			return nil, err
		}
		return shadowProspects(ps), nil
	}
	ms, err := ix.TopKContext(ctx, q.ID, q.K, q.Filter)
	if err != nil {
		return nil, err
	}
	return shadowMatches(ms), nil
}

// shadowSubmit enqueues one sampled query for exact re-execution. The sample
// holds its own reference on the generation it was served from — the shadow
// worker's exact scan must never race a reload's munmap — and the exact leg
// runs on a pruner-free shallow copy of the index (the copy preserves the
// scan partition; Corpus and Reps are shared, not copied).
func (s *Server) shadowSubmit(ctx context.Context, st *state, q shadow.Query, served []shadow.Result) {
	if !st.acquire() {
		return // generation already dead (Server.Close raced the request)
	}
	exactIx := *st.ix
	exactIx.SetPruner(nil)
	smp := shadow.Sample{
		Query:  q,
		Served: served,
		Exact: func(ctx context.Context) ([]shadow.Result, error) {
			return shadowScan(ctx, &exactIx, q)
		},
		Release: st.release,
	}
	if sp := trace.FromContext(ctx); sp.Active() {
		smp.TraceID = sp.TraceID().String()
	}
	s.shadow.Submit(smp)
}

func (s *Server) handleSimilar(ctx context.Context, st *state, r *http.Request) (response, error) {
	id, err := pathID(r)
	if err != nil {
		return response{}, err
	}
	q := r.URL.Query()
	k, err := intParam(q, "k")
	if err != nil {
		return response{}, err
	}
	if k == 0 {
		k = s.cfg.DefaultK
	}
	f, err := filterFromQuery(q)
	if err != nil {
		return response{}, err
	}
	key := fmt.Sprintf("similar|%d|%d|%s", id, k, f.Key())
	if body, ok := st.cache.get(key); ok {
		return response{raw: body}, nil
	}
	// The sampling decision is drawn before the scan, once per eligible query
	// (ANN-served cache miss), so the decision stream depends only on the
	// request sequence — a failed scan still consumes its decision.
	sampled := s.shadow != nil && st.ix.Pruner() != nil && s.shadow.Sample()
	ms, err := st.ix.TopKContext(ctx, id, k, f)
	if err != nil {
		return response{}, err
	}
	if sampled {
		s.shadowSubmit(ctx, st, shadow.Query{Kind: "similar", ID: id, K: k, Filter: f}, shadowMatches(ms))
	}
	return response{
		value: api.SimilarResponse{
			CompanyID: id,
			Name:      st.ix.Corpus.Companies[id].Name,
			K:         k,
			Matches:   s.matches(st, ms),
		},
		cacheKey: key,
	}, nil
}

// recommendations renders a scored recommendation list — the one body shape
// /v1/recommend/{id} and /internal/recommend share.
func recommendations(st *state, id, peers int, recs []core.ProductRecommendation) api.RecommendResponse {
	out := make([]api.Recommendation, len(recs))
	for i, rec := range recs {
		out[i] = api.Recommendation{
			Category: rec.Category, Name: rec.Name,
			Strength: rec.Strength, Owners: rec.Owners,
		}
	}
	return api.RecommendResponse{
		CompanyID:       id,
		Name:            st.ix.Corpus.Companies[id].Name,
		Peers:           peers,
		Recommendations: out,
	}
}

func (s *Server) handleRecommend(ctx context.Context, st *state, r *http.Request) (response, error) {
	id, err := pathID(r)
	if err != nil {
		return response{}, err
	}
	q := r.URL.Query()
	peers, err := intParam(q, "peers")
	if err != nil {
		return response{}, err
	}
	if peers == 0 {
		peers = s.cfg.DefaultPeers
	}
	f, err := filterFromQuery(q)
	if err != nil {
		return response{}, err
	}
	key := fmt.Sprintf("recommend|%d|%d|%s", id, peers, f.Key())
	if body, ok := st.cache.get(key); ok {
		return response{raw: body}, nil
	}
	recs, err := st.ix.RecommendFromSimilarContext(ctx, id, peers, f)
	if err != nil {
		return response{}, err
	}
	return response{value: recommendations(st, id, peers, recs), cacheKey: key}, nil
}

func (s *Server) handleWhitespace(ctx context.Context, st *state, r *http.Request) (response, error) {
	var req api.WhitespaceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return response{}, bodyError("whitespace", err)
	}
	k := req.K
	if k == 0 {
		k = s.cfg.DefaultK
	}
	f := req.Filter.Core()
	sampled := s.shadow != nil && st.ix.Pruner() != nil && s.shadow.Sample()
	prospects, err := st.ix.WhitespaceContext(ctx, req.Clients, k, f)
	if err != nil {
		return response{}, err
	}
	if sampled {
		q := shadow.Query{Kind: "whitespace", Clients: append([]int(nil), req.Clients...), K: k, Filter: f}
		s.shadowSubmit(ctx, st, q, shadowProspects(prospects))
	}
	out := make([]api.Prospect, len(prospects))
	for i, p := range prospects {
		out[i] = api.Prospect{
			CompanyID:     p.CompanyID,
			Name:          st.ix.Corpus.Companies[p.CompanyID].Name,
			NearestClient: p.NearestClient,
			Similarity:    p.Similarity,
		}
	}
	return response{value: api.WhitespaceResponse{K: k, Prospects: out}}, nil
}

func (s *Server) handleInfer(ctx context.Context, st *state, r *http.Request) (response, error) {
	if st.model == nil {
		return response{}, &api.Error{Status: http.StatusNotImplemented,
			Err: errors.New("serve: no model loaded; /v1/infer unavailable")}
	}
	var req api.InferRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return response{}, bodyError("infer", err)
	}
	if len(req.Owned) == 0 {
		return response{}, api.BadRequest("serve: infer request needs a non-empty owned category set")
	}
	for _, cat := range req.Owned {
		if cat < 0 || cat >= st.model.V {
			return response{}, api.BadRequest("serve: owned category %d outside [0,%d)", cat, st.model.V)
		}
	}
	k := req.K
	if k == 0 {
		k = s.cfg.DefaultK
	}
	// A fresh stream per request keeps fold-in inference deterministic for
	// identical requests and safe under concurrency (no shared RNG state).
	theta := st.model.InferTheta(req.Owned, rng.New(s.cfg.Seed))
	ms, err := st.ix.TopKByVectorContext(ctx, theta, k, req.Filter.Core())
	if err != nil {
		return response{}, err
	}
	return response{value: api.InferResponse{Theta: theta, K: k, Matches: s.matches(st, ms)}}, nil
}

// handleInternalRecommend is the shard-side half of two-phase sharded
// recommendation (see api.InternalRecommendRequest).
func (s *Server) handleInternalRecommend(_ context.Context, st *state, r *http.Request) (response, error) {
	// No ctx: scoring is O(peers), there is no candidate scan to cancel.
	var req api.InternalRecommendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return response{}, bodyError("internal recommend", err)
	}
	peers := make([]core.Match, len(req.Matches))
	for i, m := range req.Matches {
		peers[i] = core.Match{CompanyID: m.CompanyID, Similarity: m.Similarity}
	}
	recs, err := st.ix.RecommendFromPeers(req.CompanyID, peers)
	if err != nil {
		return response{}, err
	}
	return response{value: recommendations(st, req.CompanyID, req.Peers, recs)}, nil
}

// handleReload rebuilds the serving state through the Loader and installs
// it atomically. In-flight queries keep the generation they captured at
// entry; new queries see the new index and an empty cache.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Body != nil && s.cfg.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	if s.load == nil {
		s.mReload.Errors.Inc()
		api.WriteError(w, r, s.cfg.Logger, http.StatusNotImplemented, errors.New("serve: no loader configured"))
		return
	}
	loaded, err := s.load(r.Context())
	if err != nil {
		s.mReload.Errors.Inc()
		api.WriteError(w, r, s.cfg.Logger, http.StatusInternalServerError, fmt.Errorf("serve: reload failed: %w", err))
		return
	}
	ix, model := loaded.Index, loaded.Model
	if err := checkState(ix, model); err != nil {
		if loaded.Close != nil {
			_ = loaded.Close()
		}
		s.mReload.Errors.Inc()
		api.WriteError(w, r, s.cfg.Logger, http.StatusInternalServerError, fmt.Errorf("serve: reload rejected: %w", err))
		return
	}
	// Canary phase: before the incoming generation can take traffic, replay
	// the last M shadow-sampled queries against it — through its configured
	// scan path and an exact copy — and diff against what the serving
	// generation answered. The handler owns the incoming generation
	// exclusively here (no refcounting needed until the swap publishes it).
	var canary *shadow.GenerationDiff
	if s.shadow != nil {
		servedIx, exactIx := *ix, *ix
		exactIx.SetPruner(nil)
		exec := func(ctx context.Context, q shadow.Query) (served, exact []shadow.Result, err error) {
			if served, err = shadowScan(ctx, &servedIx, q); err != nil {
				return nil, nil, err
			}
			if exact, err = shadowScan(ctx, &exactIx, q); err != nil {
				return nil, nil, err
			}
			return served, exact, nil
		}
		if diff, ok := s.shadow.CanaryDiff(r.Context(), exec); ok {
			canary = &diff
			if g := s.cfg.ReloadGuard; g > 0 && diff.Queries > diff.Errors && diff.MeanJaccard < g {
				s.shadow.RecordRefusal()
				if loaded.Close != nil {
					_ = loaded.Close()
				}
				s.mReload.Errors.Inc()
				s.cfg.Logger.Warn("reload refused by canary guard",
					"mean_jaccard", diff.MeanJaccard, "guard", g,
					"recall_delta", diff.RecallDelta, "queries", diff.Queries)
				api.WriteError(w, r, s.cfg.Logger, http.StatusConflict,
					fmt.Errorf("serve: reload refused: canary mean result-set Jaccard %.3f below guard %.3f over %d replayed queries (recall delta %+.3f)",
						diff.MeanJaccard, g, diff.Queries, diff.RecallDelta))
				return
			}
		}
	}
	next := &state{ix: ix, model: model, cache: newLRU(s.cfg.CacheSize), gen: s.gens.Add(1), close: loaded.Close}
	next.refs.Store(1)
	old := s.cur.Swap(next)
	// Drop the old generation's birth reference. Its backing (an mmap, for
	// v2 models) is released only when the last in-flight request against it
	// finishes — possibly right here, if none are running.
	old.release()
	reloadsTotal.Inc()
	s.mReload.Requests.Inc()
	s.mReload.Latency.Observe(time.Since(start).Seconds())
	resp := reloadResponse{
		Companies:   ix.Corpus.N(),
		Dim:         ix.Reps.Cols,
		Invalidated: old.cache.len(),
		Generation:  next.gen,
		Reloaded:    true,
		Canary:      canary,
	}
	if model != nil {
		resp.Topics = model.K
	}
	s.cfg.Logger.Info("model reloaded", append([]any{"companies", resp.Companies, "dim", resp.Dim,
		"invalidated", resp.Invalidated, "gen", next.gen}, loaded.BuildLog...)...)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// SLORoutes returns the /debug/slo route for the -debug-addr mux, or nothing
// when SLO tracking is off — the debug listener's route set is unchanged on
// the disabled path.
func (s *Server) SLORoutes() []obs.Route { return s.slo.Routes() }

// ShadowRoutes returns the /debug/recall route for the -debug-addr mux, or
// nothing when shadow sampling is off (same disabled-path contract as
// SLORoutes). The same route is also mounted on the serving mux so routers
// and load generators can scrape it without knowing the debug address.
func (s *Server) ShadowRoutes() []obs.Route { return s.shadow.Routes() }

// Close releases the server's background resources: the shadow sampler (its
// worker drains, releasing any generation references queued samples hold),
// the SLO rotation ticker, and the live generation's reference (so an
// mmap-backed model is unmapped once in-flight requests drain). Stop routing
// traffic here before Close; straggler requests that arrive anyway answer 503
// (current() refuses the dead generation) rather than touch unmapped memory.
// Safe to call more than once: the current-generation release is guarded so a
// double Close cannot double-unmap.
func (s *Server) Close() {
	s.shadow.Close()
	s.slo.Close()
	if s.closed.CompareAndSwap(false, true) {
		s.cur.Load().release()
	}
}
