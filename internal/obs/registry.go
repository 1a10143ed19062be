// Package obs is the repo's zero-dependency observability layer: a
// concurrent-safe metrics registry (atomic counters, gauges and fixed-bucket
// histograms with quantile estimates), a lightweight span/timer API that
// accumulates hierarchical wall-clock timings into the registry, and a
// Progress hook type that training loops invoke per iteration. Every model
// family (lda, lstm, gru, bpmf, sgns), the serving paths in internal/core,
// and the experiment drivers in internal/eval report through the process-wide
// default registry, which the cmd/ binaries expose over HTTP (-debug-addr)
// in Prometheus text format and as JSON snapshots.
//
// The package deliberately depends only on the standard library: the metrics
// it collects exist to measure hot paths, so the collection primitives must
// be cheap (single atomic ops), allocation-free on the hot path, and safe to
// leave compiled into production binaries.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Add increments the gauge by v (CAS loop; safe for concurrent use).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// Registry holds named metrics. All methods are safe for concurrent use;
// metric lookups take a read lock only, and metric updates are lock-free.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	windows  map[string]*WindowedHistogram
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		windows:  make(map[string]*WindowedHistogram),
		help:     make(map[string]string),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that all built-in
// instrumentation reports into.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. The help
// string of the first registration wins. Panics if the name is invalid or
// already registered as a different metric kind.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c != nil {
		return c
	}
	r.checkNew(name, help)
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g != nil {
		return g
	}
	r.checkNew(name, help)
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls ignore buckets). Bounds must be
// strictly increasing; an implicit +Inf bucket is always appended.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h != nil {
		return h
	}
	r.checkNew(name, help)
	h = newHistogram(buckets)
	r.hists[name] = h
	return h
}

// checkNew validates a metric name about to be inserted; callers hold the
// write lock.
func (r *Registry) checkNew(name, help string) {
	if !ValidMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if _, dup := r.help[name]; dup {
		panic(fmt.Sprintf("obs: metric %q already registered as a different kind", name))
	}
	r.help[name] = help
}

// Names returns every registered metric name, sorted — counters, gauges,
// histograms and windowed histograms alike. The metrics-documentation check
// (scripts/check_metrics_docs.sh) walks it to assert each series that can
// appear in an exposition is documented in README or DESIGN.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.help))
	for name := range r.help {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ValidMetricName reports whether name matches the Prometheus metric name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// MetricName sanitizes an arbitrary dotted span or label path into a valid
// metric name: every invalid character becomes '_'.
func MetricName(s string) string {
	if ValidMetricName(s) {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			b[i] = '_'
		}
	}
	if len(b) == 0 {
		return "_"
	}
	return string(b)
}
