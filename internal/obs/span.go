package obs

import "time"

// Span is a lightweight wall-clock timer. Start one with
// obs.Start("lda.train") and call End to accumulate the elapsed seconds into
// the registry histogram named after the dotted path ("lda.train" ->
// lda_train_seconds). Spans are plain values: no allocation on start.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
}

// Start begins a span on the default registry.
func Start(name string) Span { return defaultRegistry.StartSpan(name) }

// StartSpan begins a span on this registry.
func (r *Registry) StartSpan(name string) Span {
	return Span{reg: r, name: name, start: time.Now()}
}

// End stops the span, accumulates the elapsed wall-clock seconds into the
// <path>_seconds histogram, and returns the duration.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	s.reg.Histogram(MetricName(s.name)+"_seconds",
		"wall-clock seconds spent in "+s.name+" spans", DefBuckets).Observe(d.Seconds())
	return d
}
