package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// SLO defaults; a zero SLOConfig field selects the matching constant.
const (
	// DefaultSLOWindow is the rolling window the objectives are evaluated
	// over. One minute matches the shortest alerting window an operator
	// would page on.
	DefaultSLOWindow = time.Minute
	// DefaultSLOBuckets is the ring size K: the window slides in steps of
	// Window/K, so 6 buckets give 10s granularity on the default window.
	DefaultSLOBuckets = 6
	// DefaultSLOAvailability is the availability objective (non-5xx
	// fraction of requests) when the config leaves it zero.
	DefaultSLOAvailability = 0.999
	// DefaultSLOLatency is the per-endpoint p99 latency objective applied
	// to endpoints with no explicit entry.
	DefaultSLOLatency = 100 * time.Millisecond
)

// SLOConfig declares the serving objectives the server tracks over a rolling
// window: one availability objective shared by every query endpoint, and a
// p99 latency objective per endpoint (the "default" key is the fallback).
// Zero values select the Default* constants above.
type SLOConfig struct {
	// Window is the rolling evaluation span.
	Window time.Duration
	// Buckets is the ring size K; the window advances in Window/K steps.
	Buckets int
	// Availability is the objective fraction of requests answered without a
	// server error (status < 500), e.g. 0.999 for "three nines".
	Availability float64
	// Latency maps endpoint name (similar, recommend, whitespace, infer) to
	// its p99 latency objective. The "default" entry covers endpoints with
	// no explicit one; missing entirely selects DefaultSLOLatency.
	Latency map[string]time.Duration
	// Recall is the observed-recall objective in (0, 1), evaluated against a
	// RecallSource (the shadow sampler's sliding-window mean) when one is
	// attached. Zero disables the recall objective — /debug/slo and /healthz
	// bodies stay exactly as before.
	Recall float64
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Window <= 0 {
		c.Window = DefaultSLOWindow
	}
	if c.Buckets < 2 {
		c.Buckets = DefaultSLOBuckets
	}
	if c.Availability <= 0 || c.Availability >= 1 {
		c.Availability = DefaultSLOAvailability
	}
	if c.Recall < 0 || c.Recall >= 1 {
		c.Recall = 0
	}
	return c
}

// latencyObjective resolves the objective for one endpoint.
func (c SLOConfig) latencyObjective(endpoint string) time.Duration {
	if d, ok := c.Latency[endpoint]; ok && d > 0 {
		return d
	}
	if d, ok := c.Latency["default"]; ok && d > 0 {
		return d
	}
	return DefaultSLOLatency
}

// ParseLatencyObjectives parses the -slo-latency flag syntax: a
// comma-separated list of endpoint=duration pairs, e.g.
// "default=100ms,similar=50ms". An empty string yields nil (all defaults).
func ParseLatencyObjectives(s string) (map[string]time.Duration, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]time.Duration)
	for _, part := range strings.Split(s, ",") {
		name, raw, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("serve: latency objective %q is not endpoint=duration", part)
		}
		d, err := time.ParseDuration(strings.TrimSpace(raw))
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("serve: latency objective %q has a bad duration", part)
		}
		out[strings.TrimSpace(name)] = d
	}
	return out, nil
}

// sloEndpoint is the rolling state of one endpoint: a windowed latency
// histogram (registered as <prefix>_<name>_latency_window_seconds so the
// JSON snapshot exposes the sliding quantiles) and windowed request/error
// counters feeding the error-budget math.
type sloEndpoint struct {
	name       string
	latencyObj time.Duration
	latency    *obs.WindowedHistogram
	requests   *obs.WindowedCounter
	errors     *obs.WindowedCounter
}

// SLOTracker owns per-endpoint rolling SLO state and the shared rotation
// ticker. Shell.Endpoint feeds it; ibserve and ibrouter each construct their
// own under a distinct metric prefix and mount its /debug/slo route on the
// debug listener. A nil *SLOTracker is inert: Record, Close, Routes and
// Health are no-ops.
type SLOTracker struct {
	cfg      SLOConfig
	started  time.Time
	order    []string
	trackers map[string]*sloEndpoint
	stop     func()
	recall   RecallSource // nil = no recall objective evaluated
}

// RecallSource supplies the observed result-quality signal the recall
// objective is evaluated against: a sliding-window mean recall and the
// sample count it rests on. internal/shadow's Sampler implements it.
type RecallSource interface {
	ObservedRecall() (mean float64, samples uint64)
}

// SetRecallSource attaches the observed-recall signal. Call before serving;
// with no source (or a zero cfg.Recall) the recall objective is skipped and
// Status output is unchanged. Nil-safe.
func (s *SLOTracker) SetRecallSource(src RecallSource) {
	if s != nil {
		s.recall = src
	}
}

// NewSLOTracker builds trackers for the given endpoints and starts one
// ticker rotating every tracker each Window/Buckets. The windowed latency
// histograms register as <prefix>_<endpoint>_latency_window_seconds, so two
// trackers in one process (e.g. a router and an embedded shard in tests)
// must use distinct prefixes. The caller must Close the tracker to release
// the ticker goroutine.
func NewSLOTracker(cfg SLOConfig, prefix string, endpoints []string) *SLOTracker {
	cfg = cfg.withDefaults()
	set := &SLOTracker{
		cfg:      cfg,
		started:  time.Now(),
		order:    append([]string(nil), endpoints...),
		trackers: make(map[string]*sloEndpoint, len(endpoints)),
	}
	rotators := make([]obs.Rotator, 0, 3*len(endpoints))
	for _, name := range endpoints {
		tr := &sloEndpoint{
			name:       name,
			latencyObj: cfg.latencyObjective(name),
			latency: obs.Default().WindowedHistogram(
				prefix+"_"+name+"_latency_window_seconds",
				"rolling-window latency of served "+name+" queries (SLO evaluation window)",
				obs.DefBuckets, cfg.Buckets),
			requests: obs.NewWindowedCounter(cfg.Buckets),
			errors:   obs.NewWindowedCounter(cfg.Buckets),
		}
		set.trackers[name] = tr
		rotators = append(rotators, tr.latency, tr.requests, tr.errors)
	}
	set.stop = obs.StartWindowTicker(cfg.Window/time.Duration(cfg.Buckets), rotators...)
	return set
}

// Record folds one finished request into the endpoint's rolling window:
// every request counts toward availability, server errors (status >= 500 —
// saturation, deadline, internal failure) consume error budget, and latency
// is observed for answered requests only (status < 400) so client mistakes
// cannot dilute the latency distribution. Nil tracker (SLOs off) is a no-op,
// keeping the disabled path free of metric deltas.
func (s *SLOTracker) Record(endpoint string, status int, dur time.Duration) {
	if s == nil {
		return
	}
	tr := s.trackers[endpoint]
	if tr == nil {
		return
	}
	tr.requests.Inc()
	if status >= 500 {
		tr.errors.Inc()
	}
	if status < 400 {
		tr.latency.Observe(dur.Seconds())
	}
}

// Close stops the rotation ticker. Safe on nil and safe to call twice.
func (s *SLOTracker) Close() {
	if s != nil && s.stop != nil {
		s.stop()
	}
}

// SLOEndpointStatus is one endpoint's rolling evaluation in /debug/slo.
type SLOEndpointStatus struct {
	Endpoint string `json:"endpoint"`
	// Requests and Errors count over the rolling window only.
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	QPS      float64 `json:"qps"`
	// ErrorRate is Errors/Requests; 0 when the window is empty.
	ErrorRate             float64 `json:"error_rate"`
	AvailabilityObjective float64 `json:"availability_objective"`
	// ErrorBudget is the allowed error fraction, 1 - objective.
	ErrorBudget float64 `json:"error_budget"`
	// BurnRate is ErrorRate/ErrorBudget: 1.0 means errors are arriving at
	// exactly the rate that exhausts the budget; >1 is an active burn.
	BurnRate float64 `json:"burn_rate"`
	// BudgetRemaining is the unspent fraction of the window's error budget,
	// max(0, 1 - BurnRate).
	BudgetRemaining    float64 `json:"error_budget_remaining"`
	LatencyObjectiveMS float64 `json:"latency_objective_ms"`
	P50MS              float64 `json:"p50_ms"`
	P90MS              float64 `json:"p90_ms"`
	P99MS              float64 `json:"p99_ms"`
	P999MS             float64 `json:"p999_ms"`
	AvailabilityOK     bool    `json:"availability_ok"`
	LatencyOK          bool    `json:"latency_ok"`
	OK                 bool    `json:"ok"`
}

// SLORecallStatus is the recall objective's rolling evaluation: the third
// SLO pillar next to availability and latency, fed by shadow sampling. The
// burn rate is the quality analogue of the availability one — missed-recall
// fraction over allowed-miss fraction, (1−observed)/(1−objective) — so 1.0
// means the index is decaying at exactly the tolerated rate.
type SLORecallStatus struct {
	Objective float64 `json:"objective"`
	Observed  float64 `json:"observed"`
	// Samples is the shadow-sample count behind Observed over the window; a
	// zero-sample window is reported but never evaluated (no data, no burn).
	Samples  uint64  `json:"samples"`
	BurnRate float64 `json:"burn_rate"`
	OK       bool    `json:"ok"`
}

// SLOStatus is the full /debug/slo body.
type SLOStatus struct {
	WindowSec    float64             `json:"window_seconds"`
	Buckets      int                 `json:"buckets"`
	Availability float64             `json:"availability_objective"`
	OK           bool                `json:"ok"`
	Burning      []string            `json:"burning,omitempty"` // endpoints (or "recall") currently violating an objective
	Endpoints    []SLOEndpointStatus `json:"endpoints"`
	// Recall is present only when a recall objective and source are
	// configured (-slo-recall with -shadow-sample); nil keeps the body
	// byte-identical to a latency/availability-only tracker.
	Recall *SLORecallStatus `json:"recall,omitempty"`
}

// Status evaluates every tracker against its objectives right now.
func (s *SLOTracker) Status() SLOStatus {
	out := SLOStatus{
		WindowSec:    s.cfg.Window.Seconds(),
		Buckets:      s.cfg.Buckets,
		Availability: s.cfg.Availability,
		OK:           true,
	}
	// QPS over a freshly started server divides by elapsed time, not the
	// full window, so a 5s-old process doesn't report 1/12th of its rate.
	span := time.Since(s.started).Seconds()
	if w := s.cfg.Window.Seconds(); span > w {
		span = w
	}
	for _, name := range s.order {
		tr := s.trackers[name]
		req, errs := tr.requests.Total(), tr.errors.Total()
		st := SLOEndpointStatus{
			Endpoint:              name,
			Requests:              req,
			Errors:                errs,
			AvailabilityObjective: s.cfg.Availability,
			ErrorBudget:           1 - s.cfg.Availability,
			LatencyObjectiveMS:    float64(tr.latencyObj) / float64(time.Millisecond),
			P50MS:                 tr.latency.Quantile(0.50) * 1e3,
			P90MS:                 tr.latency.Quantile(0.90) * 1e3,
			P99MS:                 tr.latency.Quantile(0.99) * 1e3,
			P999MS:                tr.latency.Quantile(0.999) * 1e3,
		}
		if span > 0 {
			st.QPS = float64(req) / span
		}
		if req > 0 {
			st.ErrorRate = float64(errs) / float64(req)
		}
		st.BurnRate = st.ErrorRate / st.ErrorBudget
		st.BudgetRemaining = 1 - st.BurnRate
		if st.BudgetRemaining < 0 {
			st.BudgetRemaining = 0
		}
		st.AvailabilityOK = st.BurnRate <= 1
		st.LatencyOK = st.P99MS <= st.LatencyObjectiveMS
		st.OK = st.AvailabilityOK && st.LatencyOK
		if !st.OK {
			out.OK = false
			out.Burning = append(out.Burning, name)
		}
		out.Endpoints = append(out.Endpoints, st)
	}
	if s.cfg.Recall > 0 && s.recall != nil {
		mean, n := s.recall.ObservedRecall()
		rs := &SLORecallStatus{Objective: s.cfg.Recall, Observed: mean, Samples: n, OK: true}
		if n > 0 {
			rs.BurnRate = (1 - mean) / (1 - s.cfg.Recall)
			rs.OK = rs.BurnRate <= 1
		}
		if !rs.OK {
			out.OK = false
			out.Burning = append(out.Burning, "recall")
		}
		out.Recall = rs
	}
	sort.Strings(out.Burning)
	return out
}

// SLOHealth is the one-line SLO summary folded into /healthz when SLO
// tracking is on; omitted entirely (json omitempty on a nil pointer) when
// off, so the disabled-path /healthz body is byte-identical.
type SLOHealth struct {
	OK      bool     `json:"ok"`
	Burning []string `json:"burning,omitempty"`
}

// Health returns the /healthz summary, or nil on a nil tracker.
func (s *SLOTracker) Health() *SLOHealth {
	if s == nil {
		return nil
	}
	st := s.Status()
	return &SLOHealth{OK: st.OK, Burning: st.Burning}
}

// handleSLO serves GET /debug/slo: the JSON evaluation by default, or an
// aligned human-readable table with ?format=text.
func (s *SLOTracker) handleSLO(w http.ResponseWriter, r *http.Request) {
	st := s.Status()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeSLOText(w, st)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

func writeSLOText(w http.ResponseWriter, st SLOStatus) {
	overall := "OK"
	if !st.OK {
		overall = "BURNING: " + strings.Join(st.Burning, ", ")
	}
	fmt.Fprintf(w, "SLO %s  window=%gs  availability objective=%.4f\n\n",
		overall, st.WindowSec, st.Availability)
	fmt.Fprintf(w, "%-12s %8s %6s %8s %8s %9s %9s %9s %10s %s\n",
		"endpoint", "req", "err", "qps", "burn", "p50ms", "p99ms", "p999ms", "obj_ms", "status")
	for _, e := range st.Endpoints {
		status := "ok"
		switch {
		case !e.AvailabilityOK && !e.LatencyOK:
			status = "burning(avail,lat)"
		case !e.AvailabilityOK:
			status = "burning(avail)"
		case !e.LatencyOK:
			status = "burning(lat)"
		}
		fmt.Fprintf(w, "%-12s %8d %6d %8.1f %8.2f %9.3f %9.3f %9.3f %10g %s\n",
			e.Endpoint, e.Requests, e.Errors, e.QPS, e.BurnRate,
			e.P50MS, e.P99MS, e.P999MS, e.LatencyObjectiveMS, status)
	}
	if rc := st.Recall; rc != nil {
		status := "ok"
		if !rc.OK {
			status = "burning(recall)"
		}
		if rc.Samples == 0 {
			status = "no data"
		}
		fmt.Fprintf(w, "\nrecall       observed=%.4f objective=%.4f samples=%d burn=%.2f %s\n",
			rc.Observed, rc.Objective, rc.Samples, rc.BurnRate, status)
	}
}

// Routes returns the tracker's /debug/slo route for a -debug-addr mux, or
// nothing on a nil tracker — the debug listener's route set is unchanged on
// the disabled path.
func (s *SLOTracker) Routes() []obs.Route {
	if s == nil {
		return nil
	}
	return []obs.Route{{Pattern: "GET /debug/slo", Handler: http.HandlerFunc(s.handleSLO)}}
}
