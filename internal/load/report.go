package load

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"repro/internal/snapshot"
	"repro/internal/stats"
)

// EndpointStats is the client-observed result for one endpoint (or the
// whole run, in Report.Total). Latencies are milliseconds; quantiles are
// exact order statistics over the measured samples, not bucket estimates.
// Quantiles use ceil-based nearest-rank (the smallest sample ≥ q of the
// distribution), so tail figures never under-report: p99 of 500 samples is
// the 495th order statistic, not the 494th as the earlier floor-indexed
// reports recorded. Report files written before this change can read one rank
// lower on P99MS/P999MS.
type EndpointStats struct {
	Requests int `json:"requests"`
	Errors   int `json:"errors"` // transport failures + status >= 400
	// ErrorsTransport counts requests that never produced an HTTP status
	// (dial refused, client timeout, connection reset); ErrorsHTTP counts
	// responses with status >= 400. The two failure modes point at different
	// layers, so the split is always recorded: Errors = transport + HTTP.
	ErrorsTransport int     `json:"errors_transport"`
	ErrorsHTTP      int     `json:"errors_http"`
	ErrorRate       float64 `json:"error_rate"`
	// Partial counts degraded scatter-gather answers (X-Partial: true from a
	// sharded router) — successful requests that were missing shards.
	Partial int     `json:"partial_responses,omitempty"`
	QPS     float64 `json:"qps"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	P99MS   float64 `json:"p99_ms"`
	P999MS  float64 `json:"p999_ms"`
	MaxMS   float64 `json:"max_ms"`
	// SlowestTraceID names the trace of the worst measured request — paste
	// into /debug/traces/{id} on the server's -debug-addr listener. Present
	// only when the run propagated traceparent headers.
	SlowestTraceID string `json:"slowest_trace_id,omitempty"`
}

// Report is the shape of the file ibload writes to -out.
type Report struct {
	Benchmark string `json:"benchmark"`
	// Label distinguishes runs in a combined benchmark file (e.g. "unsharded"
	// vs "sharded_router_3"); set with ibload -label.
	Label string `json:"label,omitempty"`
	Mode  string `json:"mode"` // open | closed
	// TargetQPS is the open-loop arrival rate (0 in closed loop); compare
	// with Total.QPS to see whether the server kept up.
	TargetQPS   float64 `json:"target_qps,omitempty"`
	Concurrency int     `json:"concurrency"`
	// CoordinatedOmissionCorrected records that open-loop latencies are
	// measured from scheduled departure, not actual send.
	CoordinatedOmissionCorrected bool                     `json:"coordinated_omission_corrected"`
	WarmupSec                    float64                  `json:"warmup_seconds"`
	MeasuredSec                  float64                  `json:"measured_seconds"`
	WarmupRequests               int                      `json:"warmup_requests"`
	Total                        EndpointStats            `json:"total"`
	Endpoints                    map[string]EndpointStats `json:"endpoints"`
	// Recall carries the server's live shadow-sampled exact-vs-ANN verdict
	// scraped from /debug/recall after the replay (ScrapeRecall); absent when
	// the target is not shadow-sampling.
	Recall *RecallStats `json:"ann_observed_recall,omitempty"`
}

func buildStats(samples []sample, measured time.Duration, withTrace bool) EndpointStats {
	st := EndpointStats{Requests: len(samples)}
	if len(samples) == 0 {
		return st
	}
	lats := make([]time.Duration, 0, len(samples))
	var sum time.Duration
	var slowest sample
	for _, s := range samples {
		if s.failed {
			st.Errors++
			if s.transport {
				st.ErrorsTransport++
			} else {
				st.ErrorsHTTP++
			}
		}
		if s.partial {
			st.Partial++
		}
		lats = append(lats, s.latency)
		sum += s.latency
		if s.latency >= slowest.latency {
			slowest = s
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	st.ErrorRate = float64(st.Errors) / float64(len(samples))
	if sec := measured.Seconds(); sec > 0 {
		st.QPS = float64(len(samples)) / sec
	}
	st.MeanMS = float64(sum) / float64(len(samples)) / float64(time.Millisecond)
	quantileMS := func(q float64) float64 {
		return float64(stats.NearestRank(lats, q)) / float64(time.Millisecond)
	}
	st.P50MS = quantileMS(0.50)
	st.P90MS = quantileMS(0.90)
	st.P99MS = quantileMS(0.99)
	st.P999MS = quantileMS(0.999)
	st.MaxMS = float64(lats[len(lats)-1]) / float64(time.Millisecond)
	if withTrace {
		st.SlowestTraceID = slowest.traceID
	}
	return st
}

func buildReport(cfg Config, samples []sample, measured time.Duration) *Report {
	mode := "closed"
	if cfg.OpenLoop {
		mode = "open"
	}
	r := &Report{
		Benchmark:                    "ibload replay against live ibserve: client-observed latency per endpoint",
		Label:                        cfg.Label,
		Mode:                         mode,
		Concurrency:                  cfg.Concurrency,
		CoordinatedOmissionCorrected: cfg.OpenLoop,
		WarmupSec:                    cfg.Warmup.Seconds(),
		MeasuredSec:                  measured.Seconds(),
		Endpoints:                    map[string]EndpointStats{},
	}
	if cfg.OpenLoop {
		r.TargetQPS = cfg.Rate
	}
	kept := make([]sample, 0, len(samples))
	byEndpoint := map[string][]sample{}
	for _, s := range samples {
		if s.warmup {
			r.WarmupRequests++
			continue
		}
		kept = append(kept, s)
		byEndpoint[s.endpoint] = append(byEndpoint[s.endpoint], s)
	}
	r.Total = buildStats(kept, measured, cfg.Trace)
	for name, group := range byEndpoint {
		r.Endpoints[name] = buildStats(group, measured, cfg.Trace)
	}
	return r
}

// WriteFile writes the report as indented JSON through snapshot.Atomic —
// the repo's single crash-safe write discipline (temp file, fsync, rename,
// world-readable install mode).
func (r *Report) WriteFile(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return snapshot.Atomic(path, func(w io.Writer) error {
		_, werr := w.Write(append(raw, '\n'))
		return werr
	})
}
