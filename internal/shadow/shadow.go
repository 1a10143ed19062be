// Package shadow closes the live-quality loop over the ANN fast path: a
// deterministic 1-in-N sampler re-executes sampled ANN-served queries as
// exact full scans off the critical path and compares the answers, turning
// "how good is the index right now" from an offline benchmark number into a
// live serving signal.
//
// The design mirrors internal/chaos's determinism discipline: every sampling
// decision is drawn from one seeded internal/rng stream under a mutex, in
// query-arrival order, so a drill replays exactly from its seed. The exact
// re-execution never touches the serving path: sampled queries enter a
// bounded queue feeding one dedicated worker goroutine, and when the queue is
// full the sample is dropped and counted (shadow_dropped_total) instead of
// blocking — served p99 is untouched by construction, and a delta test pins
// the disabled path to byte-identical responses with zero metric additions.
//
// Each processed sample yields recall@k, top-1 agreement, mean rank
// displacement and max score drift of the served (approximate) answer against
// the exact one. Results feed a sliding-window recall series (the
// ann_observed_recall gauge is the windowed mean), divergence histograms with
// trace exemplars, and a bounded worst-divergence ring served as GET
// /debug/recall — each entry carries the trace id of the offending request so
// it resolves at /debug/traces/{id}. The sampler also keeps the last M
// sampled queries with their served answers; /admin/reload replays them
// against an incoming generation before the swap (CanaryDiff) and reports the
// generation diff, optionally refusing the swap under a guard threshold.
package shadow

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Defaults; a zero Config field selects the matching constant.
const (
	// DefaultQueue bounds the sample queue between the request path and the
	// shadow worker; a full queue drops (and counts) instead of blocking.
	DefaultQueue = 64
	// DefaultWorst is the worst-divergence ring capacity of /debug/recall.
	DefaultWorst = 16
	// DefaultRecent is M, the replay buffer replayed by the reload canary.
	DefaultRecent = 32
	// DefaultTimeout bounds one exact re-execution on the shadow worker.
	DefaultTimeout = 5 * time.Second
	// DefaultWindow is the sliding span of the observed-recall series.
	DefaultWindow = time.Minute
	// DefaultBuckets is the ring size K of the observed-recall window.
	DefaultBuckets = 6
)

// Config parameterizes a Sampler. SampleN is the only required field.
type Config struct {
	// SampleN samples 1 in N eligible queries (1 = every query). Values
	// below 1 are invalid — callers gate construction on SampleN >= 1, so a
	// disabled deployment never constructs a Sampler at all (no goroutine,
	// no metrics: the PR 5/6 disabled-path discipline).
	SampleN int
	// Seed seeds the sampling-decision stream. Decisions are drawn from this
	// single stream in query-arrival order, so a drill with a pinned seed and
	// request sequence replays the exact same sample set. Default 1.
	Seed int64
	// Queue bounds the sample queue. Default DefaultQueue.
	Queue int
	// Worst bounds the worst-divergence ring. Default DefaultWorst.
	Worst int
	// Recent is M, the sampled-query replay buffer consulted by the reload
	// canary. Default DefaultRecent.
	Recent int
	// Timeout bounds each exact re-execution. Default DefaultTimeout.
	Timeout time.Duration
	// Window and Buckets shape the sliding observed-recall series, like the
	// SLO window: Buckets rings of Window/Buckets each.
	Window  time.Duration
	Buckets int
	// ExactFault, when set, is consulted before every exact re-execution; a
	// non-nil return aborts the sample and counts in
	// shadow_exact_errors_total. It is the chaos-drill hook: fault the
	// shadow path deterministically without touching the serving path.
	ExactFault func() error
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Queue <= 0 {
		c.Queue = DefaultQueue
	}
	if c.Worst <= 0 {
		c.Worst = DefaultWorst
	}
	if c.Recent <= 0 {
		c.Recent = DefaultRecent
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Buckets < 2 {
		c.Buckets = DefaultBuckets
	}
	return c
}

// Result is one ranked answer entry, the common shape of served and exact
// answers ({company id, similarity score} in rank order).
type Result struct {
	ID    int64   `json:"id"`
	Score float64 `json:"score"`
}

// Query is the replayable description of one sampled request — everything
// needed to re-execute it against another serving generation.
type Query struct {
	Kind    string      `json:"kind"` // "similar" or "whitespace"
	ID      int         `json:"id,omitempty"`
	Clients []int       `json:"clients,omitempty"`
	K       int         `json:"k"`
	Filter  core.Filter `json:"-"`
}

// Sample is one enqueued shadow job. Exact re-executes the query as an exact
// scan against the generation the request was served from; Release drops the
// generation reference the submitter acquired for the sample (it runs exactly
// once, whether the sample is processed, dropped on saturation, or drained at
// Close).
type Sample struct {
	Query   Query
	Served  []Result
	TraceID string
	Exact   func(ctx context.Context) ([]Result, error)
	Release func()
}

// Divergence is the served-vs-exact comparison of one sample.
type Divergence struct {
	// Recall is |served ∩ exact| / |exact| (1 when the exact answer is
	// empty): the fraction of the true top-k the ANN answer found.
	Recall float64
	// Top1 reports whether the first-ranked ids agree.
	Top1 bool
	// MeanDisplacement is the mean |served rank − exact rank| over ids
	// present in both answers.
	MeanDisplacement float64
	// MaxDrift is the max |served score − exact score| over common ids.
	MaxDrift float64
	// Missing lists exact-answer ids absent from the served answer, in exact
	// rank order.
	Missing []int64
}

// Diverge compares a served (approximate) answer against the exact one.
func Diverge(served, exact []Result) Divergence {
	d := Divergence{Recall: 1, Top1: true}
	servedRank := make(map[int64]int, len(served))
	for i, r := range served {
		servedRank[r.ID] = i
	}
	var hits, common int
	var dispSum float64
	for i, r := range exact {
		si, ok := servedRank[r.ID]
		if !ok {
			d.Missing = append(d.Missing, r.ID)
			continue
		}
		hits++
		common++
		if diff := si - i; diff < 0 {
			dispSum += float64(-diff)
		} else {
			dispSum += float64(diff)
		}
		if drift := served[si].Score - r.Score; drift < 0 {
			if -drift > d.MaxDrift {
				d.MaxDrift = -drift
			}
		} else if drift > d.MaxDrift {
			d.MaxDrift = drift
		}
	}
	if len(exact) > 0 {
		d.Recall = float64(hits) / float64(len(exact))
	}
	if common > 0 {
		d.MeanDisplacement = dispSum / float64(common)
	}
	if len(served) > 0 || len(exact) > 0 {
		d.Top1 = len(served) > 0 && len(exact) > 0 && served[0].ID == exact[0].ID
	}
	return d
}

// Entry is one worst-divergence ring element of /debug/recall.
type Entry struct {
	Seq              uint64    `json:"seq"`
	Kind             string    `json:"kind"`
	QueryID          int       `json:"query_id,omitempty"`
	Clients          []int     `json:"clients,omitempty"`
	K                int       `json:"k"`
	FilterKey        string    `json:"filter_key"`
	Recall           float64   `json:"recall"`
	Top1             bool      `json:"top1_agree"`
	MeanDisplacement float64   `json:"mean_rank_displacement"`
	MaxDrift         float64   `json:"max_score_drift"`
	Missing          []int64   `json:"missing_ids,omitempty"`
	TraceID          string    `json:"trace_id,omitempty"`
	Time             time.Time `json:"time"`
}

// replayEntry is one replay-buffer element: the query, the answer served at
// sample time, and the recall it scored then — the baseline the reload canary
// diffs the incoming generation against.
type replayEntry struct {
	q      Query
	served []Result
	recall float64
}

// Sampler owns the shadow pipeline: decision stream, queue, worker, metrics,
// worst ring and replay buffer. A nil *Sampler is inert — Sample reports
// false and Submit, Close and Routes are no-ops — so callers wire it
// unconditionally and gate only construction.
type Sampler struct {
	cfg     Config
	started time.Time

	dmu sync.Mutex // decision stream; drawn in arrival order like chaos
	g   *rng.RNG

	queue chan Sample
	done  chan struct{}
	wg    sync.WaitGroup
	cmu   sync.RWMutex // closed flag; Submit holds R, Close holds W
	close bool

	stopTicker func()

	samples  *obs.Counter
	dropped  *obs.Counter
	exactErr *obs.Counter
	recall   *obs.Gauge
	recallW  *obs.WindowedHistogram
	disp     *obs.Histogram
	drift    *obs.Histogram

	canaries   *obs.Counter
	refusals   *obs.Counter
	canJaccard *obs.Gauge
	canDelta   *obs.Gauge

	rmu        sync.Mutex
	seq        uint64
	worst      []Entry
	recent     []replayEntry
	recentNext int
	recentN    int
	recorded   uint64 // samples record has folded in, each after its replay entry
}

// New builds a Sampler and starts its worker and window ticker. Every metric
// below registers here — lazily, never at package init — so a deployment
// without shadow sampling adds no metric names at all. Call Close to release
// the worker and ticker.
func New(cfg Config) *Sampler {
	cfg = cfg.withDefaults()
	if cfg.SampleN < 1 {
		cfg.SampleN = 1
	}
	r := obs.Default()
	s := &Sampler{
		cfg:     cfg,
		started: time.Now(),
		g:       rng.New(cfg.Seed),
		queue:   make(chan Sample, cfg.Queue),
		done:    make(chan struct{}),
		samples: r.Counter("shadow_samples_total",
			"sampled ANN-served queries whose exact shadow re-execution completed"),
		dropped: r.Counter("shadow_dropped_total",
			"shadow samples dropped because the bounded queue was full (served latency is never blocked on)"),
		exactErr: r.Counter("shadow_exact_errors_total",
			"shadow exact re-executions that failed (deadline, cancelled scan, or injected drill fault)"),
		recall: r.Gauge("ann_observed_recall",
			"mean recall@k of ANN-served answers against exact shadow re-executions over the sliding window"),
		recallW: r.WindowedHistogram("ann_observed_recall_window",
			"sliding-window distribution of per-sample ANN recall@k (shadow-sampled)",
			recallBuckets, cfg.Buckets),
		disp: r.Histogram("shadow_rank_displacement",
			"mean absolute rank displacement of ANN-served answers vs exact, per shadow sample",
			displacementBuckets),
		drift: r.Histogram("shadow_score_drift",
			"max absolute similarity-score drift of ANN-served answers vs exact, per shadow sample",
			driftBuckets),
		canaries: r.Counter("shadow_reload_canaries_total",
			"reload canary replays executed against an incoming generation before the swap"),
		refusals: r.Counter("shadow_reload_refusals_total",
			"reloads refused because the canary generation diff breached the -reload-guard threshold"),
		canJaccard: r.Gauge("shadow_reload_diff_jaccard",
			"mean result-set Jaccard similarity between the serving and incoming generations in the last reload canary"),
		canDelta: r.Gauge("shadow_reload_diff_recall_delta",
			"canary recall minus sampled recall in the last reload canary (negative = incoming generation is worse)"),
		worst:  make([]Entry, 0, cfg.Worst),
		recent: make([]replayEntry, cfg.Recent),
	}
	s.recall.Set(0)
	s.stopTicker = obs.StartWindowTicker(cfg.Window/time.Duration(cfg.Buckets), s.recallW)
	s.wg.Add(1)
	go s.worker()
	return s
}

var (
	recallBuckets       = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}
	displacementBuckets = []float64{0.5, 1, 2, 4, 8, 16, 32}
	driftBuckets        = []float64{1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5}
)

// Sample draws one deterministic sampling decision. Call exactly once per
// eligible query (an ANN-served /v1/similar or /v1/whitespace request), in
// arrival order — the decisions come from a single seeded stream, so a pinned
// request sequence replays the same sample set from the same seed. Nil-safe.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	s.dmu.Lock()
	hit := s.g.Intn(s.cfg.SampleN) == 0
	s.dmu.Unlock()
	return hit
}

// Submit enqueues one sample without ever blocking the caller: a full queue
// drops the sample and counts it. Release runs exactly once on every path.
// Nil-safe.
func (s *Sampler) Submit(smp Sample) {
	if s == nil {
		if smp.Release != nil {
			smp.Release()
		}
		return
	}
	s.cmu.RLock()
	defer s.cmu.RUnlock()
	if s.close {
		smp.Release()
		return
	}
	select {
	case s.queue <- smp:
	default:
		s.dropped.Inc()
		smp.Release()
	}
}

// worker is the single dedicated shadow goroutine: it drains the queue,
// re-executes each sample exactly and folds the divergence into the metrics,
// worst ring and replay buffer.
func (s *Sampler) worker() {
	defer s.wg.Done()
	for {
		select {
		case smp := <-s.queue:
			s.process(smp)
		case <-s.done:
			// Close already flipped the flag, so no new samples can enter;
			// release the queued remainder without processing.
			for {
				select {
				case smp := <-s.queue:
					smp.Release()
				default:
					return
				}
			}
		}
	}
}

func (s *Sampler) process(smp Sample) {
	defer smp.Release()
	var err error
	if f := s.cfg.ExactFault; f != nil {
		err = f()
	}
	var exact []Result
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
		exact, err = smp.Exact(ctx)
		cancel()
	}
	if err != nil {
		s.exactErr.Inc()
		return
	}
	d := Diverge(smp.Served, exact)
	s.samples.Inc()
	s.recallW.Observe(d.Recall)
	if n := s.recallW.Count(); n > 0 {
		s.recall.Set(s.recallW.Sum() / float64(n))
	}
	// A traced sample leaves its trace ID as a bucket exemplar, so a p99
	// divergence bucket links straight to the offending request's span tree.
	if smp.TraceID != "" {
		s.disp.ObserveExemplar(d.MeanDisplacement, smp.TraceID)
		s.drift.ObserveExemplar(d.MaxDrift, smp.TraceID)
	} else {
		s.disp.Observe(d.MeanDisplacement)
		s.drift.Observe(d.MaxDrift)
	}
	s.record(smp, d)
}

// record folds one processed sample into the worst-divergence ring and the
// replay buffer.
func (s *Sampler) record(smp Sample, d Divergence) {
	e := Entry{
		Kind:             smp.Query.Kind,
		QueryID:          smp.Query.ID,
		Clients:          smp.Query.Clients,
		K:                smp.Query.K,
		FilterKey:        smp.Query.Filter.Key(),
		Recall:           d.Recall,
		Top1:             d.Top1,
		MeanDisplacement: d.MeanDisplacement,
		MaxDrift:         d.MaxDrift,
		Missing:          d.Missing,
		TraceID:          smp.TraceID,
		Time:             time.Now().UTC(),
	}
	s.rmu.Lock()
	s.seq++
	e.Seq = s.seq
	s.worst = append(s.worst, e)
	sort.Slice(s.worst, func(a, b int) bool {
		if s.worst[a].Recall != s.worst[b].Recall {
			return s.worst[a].Recall < s.worst[b].Recall
		}
		return s.worst[a].Seq > s.worst[b].Seq // newer first among equals
	})
	if len(s.worst) > s.cfg.Worst {
		s.worst = s.worst[:s.cfg.Worst]
	}
	s.recent[s.recentNext] = replayEntry{q: smp.Query, served: smp.Served, recall: d.Recall}
	s.recentNext = (s.recentNext + 1) % len(s.recent)
	if s.recentN < len(s.recent) {
		s.recentN++
	}
	s.recorded++
	s.rmu.Unlock()
}

// ObservedRecall returns the sliding-window mean recall and the sample count
// it is estimated from. Nil-safe (0, 0): the SLO layer treats an absent or
// empty-window sampler as "no data, no burn".
func (s *Sampler) ObservedRecall() (mean float64, samples uint64) {
	if s == nil {
		return 0, 0
	}
	n := s.recallW.Count()
	if n == 0 {
		return 0, 0
	}
	return s.recallW.Sum() / float64(n), n
}

// Status is the GET /debug/recall body.
type Status struct {
	Enabled       bool    `json:"enabled"`
	SampleOneIn   int     `json:"sample_one_in"`
	WindowSec     float64 `json:"window_seconds"`
	Samples       uint64  `json:"samples_total"` // recorded by this sampler
	Dropped       uint64  `json:"dropped_total"`
	ExactErrors   uint64  `json:"exact_errors_total"`
	WindowSamples uint64  `json:"window_samples"`
	Recall        float64 `json:"observed_recall"`
	RecallP50     float64 `json:"recall_p50"`
	Worst         []Entry `json:"worst"`
}

// Status snapshots the sampler for /debug/recall.
func (s *Sampler) Status() Status {
	mean, n := s.ObservedRecall()
	out := Status{
		Enabled:       true,
		SampleOneIn:   s.cfg.SampleN,
		WindowSec:     s.cfg.Window.Seconds(),
		Dropped:       s.dropped.Value(),
		ExactErrors:   s.exactErr.Value(),
		WindowSamples: n,
		Recall:        mean,
		RecallP50:     s.recallW.Quantile(0.5),
	}
	s.rmu.Lock()
	out.Samples = s.recorded
	out.Worst = append([]Entry(nil), s.worst...)
	s.rmu.Unlock()
	if out.Worst == nil {
		out.Worst = []Entry{} // render [] rather than null before any sample
	}
	return out
}

// Handler serves GET /debug/recall.
func (s *Sampler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Status())
	})
}

// Routes returns the /debug/recall route for a debug mux, or nothing on a
// nil sampler — the disabled path leaves every route set unchanged.
func (s *Sampler) Routes() []obs.Route {
	if s == nil {
		return nil
	}
	return []obs.Route{{Pattern: "GET /debug/recall", Handler: s.Handler()}}
}

// GenerationDiff is the reload canary verdict: the last M sampled queries
// replayed against the incoming generation, diffed against what the serving
// generation answered at sample time.
type GenerationDiff struct {
	// Queries counts replayed queries (Errors of them failed and are
	// excluded from the aggregates).
	Queries int `json:"queries"`
	Errors  int `json:"errors,omitempty"`
	// MeanJaccard / MinJaccard aggregate the per-query Jaccard similarity of
	// the served result-id sets between the two generations.
	MeanJaccard float64 `json:"mean_jaccard"`
	MinJaccard  float64 `json:"min_jaccard"`
	// SampledRecall is the mean recall these queries scored when sampled;
	// CanaryRecall is their recall on the incoming generation; RecallDelta is
	// canary minus sampled (negative = the incoming generation is worse).
	SampledRecall float64 `json:"sampled_recall"`
	CanaryRecall  float64 `json:"canary_recall"`
	RecallDelta   float64 `json:"recall_delta"`
}

// Exec re-executes one replayed query against an incoming generation,
// returning its served-path (approximate, when that generation routes scans
// through a pruner) and exact answers.
type Exec func(ctx context.Context, q Query) (served, exact []Result, err error)

// CanaryDiff replays the replay buffer against an incoming generation via
// exec and aggregates the generation diff. ok is false when no sampled
// queries are buffered yet (nothing to diff — callers proceed with the
// reload). The shadow_reload_diff_* gauges are set to the aggregates so the
// diff of the most recent reload is scrapeable.
func (s *Sampler) CanaryDiff(ctx context.Context, exec Exec) (diff GenerationDiff, ok bool) {
	if s == nil {
		return GenerationDiff{}, false
	}
	s.rmu.Lock()
	entries := make([]replayEntry, 0, s.recentN)
	// Oldest first: recentNext points at the slot the next sample overwrites.
	for i := 0; i < s.recentN; i++ {
		entries = append(entries, s.recent[(s.recentNext-s.recentN+i+len(s.recent))%len(s.recent)])
	}
	s.rmu.Unlock()
	if len(entries) == 0 {
		return GenerationDiff{}, false
	}
	diff.Queries = len(entries)
	diff.MinJaccard = 1
	var jSum, oldSum, newSum float64
	var scored int
	for _, e := range entries {
		served, exact, err := exec(ctx, e.q)
		if err != nil {
			diff.Errors++
			continue
		}
		scored++
		j := jaccard(e.served, served)
		jSum += j
		if j < diff.MinJaccard {
			diff.MinJaccard = j
		}
		oldSum += e.recall
		newSum += Diverge(served, exact).Recall
	}
	if scored == 0 {
		diff.MinJaccard = 0
		s.canaries.Inc()
		return diff, true
	}
	diff.MeanJaccard = jSum / float64(scored)
	diff.SampledRecall = oldSum / float64(scored)
	diff.CanaryRecall = newSum / float64(scored)
	diff.RecallDelta = diff.CanaryRecall - diff.SampledRecall
	s.canaries.Inc()
	s.canJaccard.Set(diff.MeanJaccard)
	s.canDelta.Set(diff.RecallDelta)
	return diff, true
}

// RecordRefusal counts one guarded reload refusal.
func (s *Sampler) RecordRefusal() {
	if s != nil {
		s.refusals.Inc()
	}
}

// jaccard is |a ∩ b| / |a ∪ b| over result-id sets (1 when both are empty).
func jaccard(a, b []Result) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[int64]bool, len(a))
	for _, r := range a {
		set[r.ID] = true
	}
	var inter int
	union := len(set)
	seen := make(map[int64]bool, len(b))
	for _, r := range b {
		if seen[r.ID] {
			continue
		}
		seen[r.ID] = true
		if set[r.ID] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}

// Close stops the worker and window ticker, releasing any queued samples'
// generation references without processing them. Safe on nil and safe to
// call twice.
func (s *Sampler) Close() {
	if s == nil {
		return
	}
	s.cmu.Lock()
	if s.close {
		s.cmu.Unlock()
		return
	}
	s.close = true
	s.cmu.Unlock()
	close(s.done)
	s.wg.Wait()
	s.stopTicker()
}
