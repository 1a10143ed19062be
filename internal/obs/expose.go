package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes every metric in Prometheus text exposition format
// (version 0.0.4), sorted by metric name so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	type entry struct {
		name string
		c    *Counter
		g    *Gauge
		h    *Histogram
		help string
	}
	r.mu.RLock()
	entries := make([]entry, 0, len(r.help))
	for name, c := range r.counters {
		entries = append(entries, entry{name: name, c: c, help: r.help[name]})
	}
	for name, g := range r.gauges {
		entries = append(entries, entry{name: name, g: g, help: r.help[name]})
	}
	for name, h := range r.hists {
		entries = append(entries, entry{name: name, h: h, help: r.help[name]})
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	bw := bufio.NewWriter(w)
	for _, e := range entries {
		if e.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", e.name, escapeHelp(e.help))
		}
		switch {
		case e.c != nil:
			fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", e.name, e.name, e.c.Value())
		case e.g != nil:
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", e.name, e.name, formatFloat(e.g.Value()))
		case e.h != nil:
			fmt.Fprintf(bw, "# TYPE %s histogram\n", e.name)
			counts := e.h.snapshotCounts()
			exemplars := e.h.snapshotExemplars()
			var cum uint64
			for i, b := range e.h.bounds {
				cum += counts[i]
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d", e.name, formatFloat(b), cum)
				writeExemplar(bw, exemplars[i])
				bw.WriteByte('\n')
			}
			cum += counts[len(counts)-1]
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d", e.name, cum)
			writeExemplar(bw, exemplars[len(exemplars)-1])
			bw.WriteByte('\n')
			fmt.Fprintf(bw, "%s_sum %s\n", e.name, formatFloat(e.h.Sum()))
			fmt.Fprintf(bw, "%s_count %d\n", e.name, e.h.Count())
		}
	}
	return bw.Flush()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeExemplar appends an OpenMetrics exemplar annotation to a bucket line:
// `... 42 # {trace_id="<id>"} <value> <unix-ts>`. Buckets with no traced
// observation get no annotation, so output with tracing off is byte-identical
// to the pre-exemplar format.
func writeExemplar(bw *bufio.Writer, ex *Exemplar) {
	if ex == nil {
		return
	}
	fmt.Fprintf(bw, " # {trace_id=%q} %s %s",
		ex.TraceID, formatFloat(ex.Value), strconv.FormatFloat(ex.UnixSec, 'f', 3, 64))
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// HistogramSnapshot is the JSON-friendly view of one histogram.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"` // upper bounds; the final implicit bucket is +Inf
	Counts []uint64  `json:"counts"` // per-bucket counts, len(bounds)+1
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
	// Exemplars maps a bucket's upper bound (formatted like the Prometheus
	// le label, "+Inf" for the overflow bucket) to the most recent traced
	// observation that landed in it. Omitted entirely when no traced
	// observation has been recorded, keeping pre-exemplar snapshots
	// byte-identical.
	Exemplars map[string]Exemplar `json:"exemplars,omitempty"`
}

// WindowSnapshot is the JSON-friendly view of one windowed histogram: counts
// and quantiles over the sliding window only.
type WindowSnapshot struct {
	Windows int     `json:"windows"` // ring size K
	Count   uint64  `json:"count"`
	Sum     float64 `json:"sum"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
	P999    float64 `json:"p999"`
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Windows    map[string]WindowSnapshot    `json:"windows,omitempty"`
}

// Snapshot copies the current value of every metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	windows := make(map[string]*WindowedHistogram, len(r.windows))
	for k, v := range r.windows {
		windows[k] = v
	}
	r.mu.RUnlock()
	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range hists {
		hs := HistogramSnapshot{
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: h.snapshotCounts(),
			P50:    h.Quantile(0.50),
			P90:    h.Quantile(0.90),
			P99:    h.Quantile(0.99),
		}
		for i, ex := range h.snapshotExemplars() {
			if ex == nil {
				continue
			}
			if hs.Exemplars == nil {
				hs.Exemplars = make(map[string]Exemplar)
			}
			le := "+Inf"
			if i < len(h.bounds) {
				le = formatFloat(h.bounds[i])
			}
			hs.Exemplars[le] = *ex
		}
		s.Histograms[name] = hs
	}
	for name, w := range windows {
		if s.Windows == nil {
			s.Windows = make(map[string]WindowSnapshot)
		}
		s.Windows[name] = WindowSnapshot{
			Windows: w.Windows(),
			Count:   w.Count(),
			Sum:     w.Sum(),
			P50:     w.Quantile(0.50),
			P90:     w.Quantile(0.90),
			P99:     w.Quantile(0.99),
			P999:    w.Quantile(0.999),
		}
	}
	return s
}

// WriteJSON writes an indented JSON snapshot of the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
