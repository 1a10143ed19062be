// Package trace is the repo's zero-dependency request-scoped tracing layer.
// Where internal/obs answers "how is the p99 doing" with aggregate
// histograms, trace answers "where did THIS 300ms request go": every traced
// request carries a 128-bit trace ID and a tree of parent/child spans with
// attributes, propagated through context.Context from the serve
// handlers down the context-threaded core query paths and into the par shard
// fan-out, so a single /v1/recommend call decomposes into filter-scan,
// shard-scan and fold-in spans with per-span wall-clock durations.
//
// Completed traces pass through tail sampling — the retention decision is
// made when the root span ends, so it can look at the whole request: traces
// containing an error span are always retained, traces whose root duration
// reaches the slow threshold are always retained, and the rest are retained
// with probability SampleRate. Retained traces land in a bounded lock-free
// ring buffer served over HTTP as /debug/traces (recent list, filterable by
// endpoint and minimum duration) and /debug/traces/{id} (full JSON tree) on
// the cmd/ binaries' -debug-addr listener.
//
// The layer is off by default and costs next to nothing then: with
// the tracer disabled and no active trace in the context, Start returns a
// nil *Span whose methods are nil-check no-ops, so instrumentation stays
// compiled into hot paths. Active spans additionally feed the obs registry —
// ending a span observes the <dotted.name>_seconds histogram — so one
// recorded span shows up both as an aggregate observation and as a tree
// node, and the existing obs.Span histograms keep working unchanged.
package trace

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Tracer-level metrics, shared by all tracers via the default obs registry.
var (
	tracesStarted = obs.Default().Counter("trace_traces_started_total",
		"root spans started (traced requests, whether or not retained)")
	tracesRetained = obs.Default().Counter("trace_traces_retained_total",
		"completed traces retained by tail sampling into the ring buffer")
	tracesSampledOut = obs.Default().Counter("trace_traces_sampled_out_total",
		"completed traces discarded by tail sampling (fast, error-free, unlucky)")
	spansStarted = obs.Default().Counter("trace_spans_total",
		"spans recorded across all traces")
	spansDropped = obs.Default().Counter("trace_spans_dropped_total",
		"spans dropped because their trace reached the per-trace span cap")
)

// Retention reasons recorded on a retained trace.
const (
	RetainedError   = "error"   // a span in the trace recorded an error
	RetainedSlow    = "slow"    // root duration reached the slow threshold
	RetainedSampled = "sampled" // probabilistically retained
)

// DefaultCapacity is the ring-buffer size a zero-configured Tracer uses.
const DefaultCapacity = 256

// DefaultMaxSpans bounds the spans kept per trace; later spans are counted
// but not stored, so a runaway fan-out cannot hold unbounded memory.
const DefaultMaxSpans = 512

// Tracer owns the sampling policy and the ring buffer of retained traces.
// All configuration methods are safe to call concurrently with tracing.
type Tracer struct {
	enabled  atomic.Bool
	slow     atomic.Int64  // retention threshold in nanoseconds; 0 disables the rule
	sample   atomic.Uint64 // float64 bits of the probabilistic retention rate
	maxSpans atomic.Int64
	rng      atomic.Uint64 // xorshift64 state for IDs and sampling
	ring     atomic.Pointer[ring]
}

// NewTracer returns a disabled tracer with a ring of the given capacity
// (capacity < 1 selects DefaultCapacity).
func NewTracer(capacity int) *Tracer {
	t := &Tracer{}
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	t.ring.Store(newRing(capacity))
	t.maxSpans.Store(DefaultMaxSpans)
	// Seed the ID stream from the wall clock; tracing never touches the
	// deterministic model RNGs, and IDs only need uniqueness, not
	// reproducibility.
	seed := uint64(time.Now().UnixNano())
	if seed == 0 {
		seed = 1
	}
	t.rng.Store(seed)
	return t
}

var defaultTracer = NewTracer(DefaultCapacity)

// Default returns the process-wide tracer the cmd/ binaries configure from
// their -trace* flags.
func Default() *Tracer { return defaultTracer }

// SetEnabled turns root-span creation on or off. Disabling does not clear
// already-retained traces.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether new root spans are being created.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// SetSlowThreshold sets the always-retain latency threshold; d <= 0 disables
// the slow rule.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.slow.Store(int64(d))
}

// SlowThreshold returns the always-retain latency threshold (0 = disabled).
func (t *Tracer) SlowThreshold() time.Duration { return time.Duration(t.slow.Load()) }

// SetSampleRate sets the probability in [0,1] that a fast, error-free trace
// is retained anyway.
func (t *Tracer) SetSampleRate(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	t.sample.Store(floatBits(p))
}

// SampleRate returns the probabilistic retention rate.
func (t *Tracer) SampleRate() float64 { return bitsFloat(t.sample.Load()) }

// SetCapacity replaces the ring buffer with an empty one of the given
// capacity (capacity < 1 selects DefaultCapacity). Retained traces are
// dropped; intended for startup configuration.
func (t *Tracer) SetCapacity(capacity int) {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	t.ring.Store(newRing(capacity))
}

// Capacity returns the ring-buffer capacity.
func (t *Tracer) Capacity() int { return len(t.ring.Load().slots) }

// SetMaxSpans bounds the spans stored per trace (n < 1 selects
// DefaultMaxSpans). ibtrain raises it so long trainings keep every epoch.
func (t *Tracer) SetMaxSpans(n int) {
	if n < 1 {
		n = DefaultMaxSpans
	}
	t.maxSpans.Store(int64(n))
}

// rand64 advances the tracer's xorshift64 stream; lock-free via CAS.
func (t *Tracer) rand64() uint64 {
	for {
		old := t.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if t.rng.CompareAndSwap(old, x) {
			return x
		}
	}
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		hi, lo := t.rand64(), t.rand64()
		for i := 0; i < 8; i++ {
			id[i] = byte(hi >> (8 * (7 - i)))
			id[8+i] = byte(lo >> (8 * (7 - i)))
		}
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		v := t.rand64()
		for i := 0; i < 8; i++ {
			id[i] = byte(v >> (8 * (7 - i)))
		}
	}
	return id
}

// traceData accumulates one in-flight trace. Span starts append under mu
// (shard spans start on worker goroutines); span field writes stay with the
// owning goroutine and are published to readers by the ring's atomic store,
// which the caller only performs after the root span — and therefore, by the
// fork/join structure of the instrumented paths, every child — has ended.
type traceData struct {
	tracer *Tracer
	id     TraceID
	start  time.Time
	remote SpanID // parent span ID from an ingested traceparent header

	mu      sync.Mutex
	spans   []*Span
	started int  // spans started, including dropped ones
	failed  bool // any span recorded an error

	// Set by finish, before the trace becomes reachable via the ring.
	dur    time.Duration
	reason string
}

// Attr is one key/value annotation on a span. Values are pre-rendered
// strings so export needs no reflection.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one node of a trace tree. A nil *Span is valid and inert: every
// method nil-checks first, so disabled tracing costs one pointer test per
// call site. Span methods other than lifecycle bookkeeping must be called
// from the goroutine that started the span.
type Span struct {
	td     *traceData
	id     SpanID
	parent SpanID // zero for the root
	name   string
	start  time.Time
	dur    time.Duration
	attrs  []Attr
	errMsg string
	failed bool
}

type ctxKey struct{}

// FromContext returns the active span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// ContextWith returns ctx carrying sp as the active span. A nil sp returns
// ctx unchanged.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// Start begins a span named name: a child of the active span when ctx
// carries one, otherwise a new root on the default tracer when it is
// enabled, otherwise nothing — (ctx, nil) comes back unchanged and every
// later call on the nil span is a no-op. The returned context carries the
// new span for further nesting.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if parent := FromContext(ctx); parent != nil {
		sp := parent.child(name)
		return ContextWith(ctx, sp), sp
	}
	return defaultTracer.Start(ctx, name)
}

// Start begins a root span on this tracer (or a child span when ctx already
// carries one, regardless of which tracer owns it).
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if parent := FromContext(ctx); parent != nil {
		sp := parent.child(name)
		return ContextWith(ctx, sp), sp
	}
	if !t.enabled.Load() {
		return ctx, nil
	}
	sp := t.newRoot(name, t.newTraceID(), SpanID{})
	return ContextWith(ctx, sp), sp
}

// StartRemote begins a root span that joins the caller's distributed trace:
// the trace adopts tp's trace ID and records tp's span as the remote parent,
// so an external system can correlate /debug/traces output with its own
// spans. Returns (ctx, nil) when the tracer is disabled.
func (t *Tracer) StartRemote(ctx context.Context, tp Traceparent, name string) (context.Context, *Span) {
	if !t.enabled.Load() {
		return ctx, nil
	}
	sp := t.newRoot(name, tp.TraceID, tp.Parent)
	return ContextWith(ctx, sp), sp
}

func (t *Tracer) newRoot(name string, id TraceID, remote SpanID) *Span {
	td := &traceData{tracer: t, id: id, start: time.Now(), remote: remote}
	sp := &Span{td: td, id: t.newSpanID(), name: name, start: td.start}
	td.spans = append(td.spans, sp)
	td.started = 1
	tracesStarted.Inc()
	spansStarted.Inc()
	return sp
}

// child creates and registers a child span; returns nil when the trace has
// hit its span cap (the drop is counted, so truncated trees are detectable).
func (s *Span) child(name string) *Span {
	td := s.td
	sp := &Span{td: td, id: td.tracer.newSpanID(), parent: s.id, name: name, start: time.Now()}
	td.mu.Lock()
	td.started++
	if len(td.spans) >= int(td.tracer.maxSpans.Load()) {
		td.mu.Unlock()
		spansDropped.Inc()
		return nil
	}
	td.spans = append(td.spans, sp)
	td.mu.Unlock()
	spansStarted.Inc()
	return sp
}

// Active reports whether the span is recording.
func (s *Span) Active() bool { return s != nil }

// TraceID returns the 128-bit trace identifier (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.td.id
}

// SpanID returns the span's own 64-bit identifier (zero for a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Attr records a string attribute on the span.
func (s *Span) Attr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// AttrInt records an integer attribute on the span.
func (s *Span) AttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: itoa(v)})
}

// Error marks the span (and therefore its trace) failed. Error traces are
// always retained by tail sampling.
func (s *Span) Error(err error) {
	if s == nil || err == nil {
		return
	}
	s.failed = true
	s.errMsg = err.Error()
	s.td.mu.Lock()
	s.td.failed = true
	s.td.mu.Unlock()
}

// End stops the span, feeds the elapsed seconds into the obs
// <dotted.name>_seconds histogram (the obs.Span convention, so the span is
// simultaneously an aggregate observation and a tree node), and — for the
// root span — runs the tail-sampling decision and publishes the trace to the
// ring buffer if retained. Returns the span duration; 0 for a nil span.
//
// The histogram observation carries the span's trace ID as a bucket exemplar,
// so a /metrics bucket line links directly to the /debug/traces/{id} tree of
// one real request that landed in it. Untraced traffic never reaches End (nil
// span fast path), so exemplar-free exposition stays byte-identical.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.dur = time.Since(s.start)
	obs.Default().Histogram(obs.MetricName(s.name)+"_seconds",
		"wall-clock seconds spent in "+s.name+" trace spans", obs.DefBuckets).
		ObserveExemplar(s.dur.Seconds(), s.td.id.String())
	if s.parent.IsZero() {
		s.td.finish(s.dur)
	}
	return s.dur
}

// finish applies tail sampling to a completed trace and, when the trace is
// retained, publishes it to the ring buffer.
func (td *traceData) finish(rootDur time.Duration) {
	t := td.tracer
	td.dur = rootDur
	td.mu.Lock()
	failed := td.failed
	td.mu.Unlock()
	switch {
	case failed:
		td.reason = RetainedError
	case t.SlowThreshold() > 0 && rootDur >= t.SlowThreshold():
		td.reason = RetainedSlow
	default:
		p := t.SampleRate()
		// 53 high bits give a uniform draw in [0,1); p >= 1 retains without
		// consuming the stream so forced-retention setups stay cheap.
		if p >= 1 || (p > 0 && float64(t.rand64()>>11)/(1<<53) < p) {
			td.reason = RetainedSampled
		} else {
			tracesSampledOut.Inc()
			return
		}
	}
	tracesRetained.Inc()
	t.ring.Load().push(td)
}

// itoa is strconv.AppendInt without the import-cycle risk of growing fmt
// into hot paths; spans record small integers (shard indexes, ks, statuses).
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
