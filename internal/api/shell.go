package api

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// EndpointMetrics is the per-endpoint served/error/latency triple. Served
// requests and failures are disjoint: a request ticks exactly one of
// Requests or Errors.
type EndpointMetrics struct {
	Requests *obs.Counter
	Errors   *obs.Counter
	Latency  *obs.Histogram
}

// NewEndpointMetrics registers (or finds) <prefix>_<name>_requests_total,
// <prefix>_<name>_errors_total and <prefix>_<name>_latency_seconds.
func NewEndpointMetrics(prefix, name string) EndpointMetrics {
	p := prefix + "_" + name
	return EndpointMetrics{
		Requests: obs.Default().Counter(p+"_requests_total",
			name+" queries answered (a router's partial answers included)"),
		Errors: obs.Default().Counter(p+"_errors_total",
			name+" queries that failed (bad arguments, saturation, no shard answering, or deadline)"),
		Latency: obs.Default().Histogram(p+"_latency_seconds",
			"end-to-end latency of answered "+name+" queries", obs.DefBuckets),
	}
}

// Response is a Handler's outcome: a fully rendered body (trailing newline
// included) and, from a router, what the shell must mark on it.
type Response struct {
	// Status 0 means 200. A status >= 400 is a verdict passed through
	// verbatim (a shard's answer to a bad request): it counts as an error of
	// the endpoint but Body is written as is.
	Status int
	Body   []byte
	// Missing lists the shards a partial answer lacks; non-empty sets the
	// X-Partial header.
	Missing []int
}

// Handler answers one query under the shell's deadline. An error is mapped
// through StatusFor and rendered as {"error": ...}.
type Handler func(ctx context.Context, r *http.Request) (Response, error)

// Shell is the request pipeline shared by every query endpoint of ibserve
// and ibrouter, plus the /readyz state beside it. It is one function
// (Endpoint) with its stages in source order rather than a chain of
// middleware values: the stages share the span, the status and the start
// time, nothing ever reorders or omits one, and per-stage timing comes from
// the trace tree. The zero readiness state is ready.
type Shell struct {
	// Prefix ("serve" or "router") names the metric series
	// <prefix>_<endpoint>_* and the root spans <prefix>.<endpoint>.
	Prefix string
	// Timeout is the per-request deadline; ?timeout_ms= can only shrink it.
	Timeout time.Duration
	// MaxBodyBytes caps request bodies (413 past it); 0 disables the cap.
	MaxBodyBytes int64
	Logger       *slog.Logger
	Tracer       *trace.Tracer
	// Quiet drops the access-log lines of successful requests.
	Quiet bool
	// SLO, when non-nil, receives every finished request.
	SLO *SLOTracker
	// Generation, when set, adds the serving generation ("gen") to access-log
	// lines; the router has none.
	Generation func() uint64

	draining atomic.Bool
}

// SetReady flips the /readyz state. Flip it to false at the start of a
// graceful shutdown — before connection draining begins — so load balancers
// and routers stop sending new work while in-flight requests finish; a
// scatter-gather router treats a not-ready shard exactly like one with a
// tripped breaker.
func (sh *Shell) SetReady(ok bool) { sh.draining.Store(!ok) }

// Ready reports the /readyz state.
func (sh *Shell) Ready() bool { return !sh.draining.Load() }

// HandleReady serves GET /readyz: 200 while serving, 503 once draining. It
// is distinct from /healthz (liveness): a draining process is still alive
// and answering in-flight queries, it just must not receive new ones.
func (sh *Shell) HandleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if !sh.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("{\"status\":\"draining\"}\n"))
		return
	}
	_, _ = w.Write([]byte("{\"status\":\"ready\"}\n"))
}

// Endpoint registers the endpoint's metric triple and wraps h in the request
// pipeline: join (or start) the trace and echo its traceparent → per-request
// deadline → body cap → h → disjoint requests/errors/latency accounting →
// partial marking → write. The deferred tail closes the span, feeds the SLO
// window and emits the access-log line (plus the slow-query line).
func (sh *Shell) Endpoint(name string, h Handler) http.HandlerFunc {
	m := NewEndpointMetrics(sh.Prefix, name)
	spanName := sh.Prefix + "." + name
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := r.Context()
		var sp *trace.Span
		if tp, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
			ctx, sp = sh.Tracer.StartRemote(ctx, tp, spanName)
		} else {
			ctx, sp = sh.Tracer.Start(ctx, spanName)
		}
		if sp.Active() {
			sp.Attr("method", r.Method)
			sp.Attr("path", r.URL.Path)
			w.Header().Set("traceparent", trace.FormatTraceparent(sp.TraceID(), sp.SpanID()))
		}
		status := http.StatusOK
		defer func() {
			sp.AttrInt("status", int64(status))
			sp.End()
			dur := time.Since(start)
			sh.SLO.Record(name, status, dur)
			sh.logRequest(r, name, status, dur, sp)
		}()

		ctx, cancel := context.WithTimeout(ctx, requestTimeout(r, sh.Timeout))
		defer cancel()

		// Bound request bodies before the handler reads them: a body past the
		// cap surfaces as *http.MaxBytesError and maps to 413 (MaxBytesReader
		// also closes the connection, so a huge upload stops early instead of
		// being read to the end and discarded).
		if r.Body != nil && sh.MaxBodyBytes > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, sh.MaxBodyBytes)
		}

		resp, err := h(ctx, r)
		if err != nil {
			m.Errors.Inc()
			status = StatusFor(err)
			sp.Error(err)
			WriteError(w, r, sh.Logger, status, err)
			return
		}
		if resp.Status != 0 {
			status = resp.Status
		}
		if status >= 400 {
			m.Errors.Inc()
		} else {
			m.Requests.Inc()
			// Traced requests leave their trace ID as a bucket exemplar on the
			// latency histogram — a p99 bucket on the dashboard links straight
			// to a span tree in /debug/traces; untraced traffic keeps the
			// allocation-free path.
			if sp.Active() {
				m.Latency.ObserveExemplar(time.Since(start).Seconds(), sp.TraceID().String())
			} else {
				m.Latency.Observe(time.Since(start).Seconds())
			}
		}
		if len(resp.Missing) > 0 {
			w.Header().Set("X-Partial", "true")
			sp.Attr("partial", fmt.Sprintf("%v", resp.Missing))
		}
		w.Header().Set("Content-Type", "application/json")
		if status != http.StatusOK {
			w.WriteHeader(status)
		}
		_, _ = w.Write(resp.Body)
	}
}

// requestTimeout returns the per-request deadline: limit, optionally
// tightened by a timeout_ms query parameter. The parameter can only shrink the
// deadline — it is capped at limit — so clients can bound their own tail
// latency but never extend the server's.
func requestTimeout(r *http.Request, limit time.Duration) time.Duration {
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		if ms, err := strconv.ParseFloat(v, 64); err == nil && ms > 0 {
			if t := time.Duration(ms * float64(time.Millisecond)); t < limit {
				return t
			}
		}
	}
	return limit
}

// logRequest emits one structured access-log line per request: endpoint,
// method, path, status, duration, serving generation (when the process has
// one) and — when traced — the trace ID to paste into /debug/traces/{id}.
// Failures (status >= 400) log at Warn and survive Quiet; successes log at
// Info unless Quiet. Requests at or over the tracer's slow threshold
// additionally get a dedicated slow-query line, which also survives Quiet.
func (sh *Shell) logRequest(r *http.Request, name string, status int, dur time.Duration, sp *trace.Span) {
	slowAt := sh.Tracer.SlowThreshold()
	slow := slowAt > 0 && dur >= slowAt
	if status < 400 && sh.Quiet && !slow {
		return // no line to write: build no attributes
	}
	attrs := append(make([]any, 0, 14), // room for gen and trace without regrowth
		"endpoint", name,
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"dur_ms", float64(dur.Microseconds())/1e3,
	)
	if sh.Generation != nil {
		attrs = append(attrs, "gen", sh.Generation())
	}
	if sp.Active() {
		attrs = append(attrs, "trace", sp.TraceID().String())
	}
	switch {
	case status >= 400:
		sh.Logger.Warn("request", attrs...)
	case !sh.Quiet:
		sh.Logger.Info("request", attrs...)
	}
	if slow {
		sh.Logger.Warn("slow query", attrs...)
	}
}
