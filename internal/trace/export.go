package trace

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// SpanJSON is one exported tree node. Offsets are relative to the trace
// start so a reader can lay the tree out on one timeline.
type SpanJSON struct {
	SpanID   string      `json:"span_id"`
	ParentID string      `json:"parent_id,omitempty"`
	Name     string      `json:"name"`
	StartUS  int64       `json:"start_us"`
	DurUS    int64       `json:"duration_us"`
	Attrs    []Attr      `json:"attrs,omitempty"`
	Error    string      `json:"error,omitempty"`
	Children []*SpanJSON `json:"children,omitempty"`
}

// TraceJSON is one exported trace: summary fields plus the full span tree.
type TraceJSON struct {
	TraceID      string    `json:"trace_id"`
	Name         string    `json:"name"` // root span name, e.g. "serve.similar"
	Start        time.Time `json:"start"`
	DurUS        int64     `json:"duration_us"`
	Retained     string    `json:"retained"` // error | slow | sampled
	Error        bool      `json:"error"`
	Spans        int       `json:"spans"`
	DroppedSpans int       `json:"dropped_spans,omitempty"`
	RemoteParent string    `json:"remote_parent,omitempty"`
	Root         *SpanJSON `json:"root"`
}

// Summary is the /debug/traces list entry: everything but the span tree.
type Summary struct {
	TraceID  string    `json:"trace_id"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	DurUS    int64     `json:"duration_us"`
	Retained string    `json:"retained"`
	Error    bool      `json:"error"`
	Spans    int       `json:"spans"`
}

// export builds the JSON tree for a finished trace.
func export(td *traceData) *TraceJSON {
	td.mu.Lock()
	spans := append([]*Span(nil), td.spans...)
	started, failed := td.started, td.failed
	td.mu.Unlock()

	nodes := make(map[SpanID]*SpanJSON, len(spans))
	for _, sp := range spans {
		nodes[sp.id] = &SpanJSON{
			SpanID:  sp.id.String(),
			Name:    sp.name,
			StartUS: sp.start.Sub(td.start).Microseconds(),
			DurUS:   sp.dur.Microseconds(),
			Attrs:   sp.attrs,
			Error:   sp.errMsg,
		}
	}
	var root *SpanJSON
	for _, sp := range spans {
		node := nodes[sp.id]
		if sp.parent.IsZero() {
			root = node
			continue
		}
		if p := nodes[sp.parent]; p != nil {
			node.ParentID = sp.parent.String()
			p.Children = append(p.Children, node)
		}
	}
	for _, node := range nodes {
		children := node.Children
		sort.Slice(children, func(a, b int) bool {
			if children[a].StartUS != children[b].StartUS {
				return children[a].StartUS < children[b].StartUS
			}
			return children[a].SpanID < children[b].SpanID
		})
	}
	out := &TraceJSON{
		TraceID:      td.id.String(),
		Start:        td.start,
		DurUS:        td.dur.Microseconds(),
		Retained:     td.reason,
		Error:        failed,
		Spans:        started,
		DroppedSpans: started - len(spans),
		Root:         root,
	}
	if root != nil {
		out.Name = root.Name
	}
	if !td.remote.IsZero() {
		out.RemoteParent = td.remote.String()
		if root != nil {
			root.ParentID = td.remote.String()
		}
	}
	return out
}

func summarize(td *traceData) Summary {
	td.mu.Lock()
	started, failed := td.started, td.failed
	var name string
	if len(td.spans) > 0 {
		name = td.spans[0].name
	}
	td.mu.Unlock()
	return Summary{
		TraceID:  td.id.String(),
		Name:     name,
		Start:    td.start,
		DurUS:    td.dur.Microseconds(),
		Retained: td.reason,
		Error:    failed,
		Spans:    started,
	}
}

// Traces returns summaries of the retained traces, newest first, filtered by
// root-span name (exact match, "" = any) and minimum duration, truncated to
// limit (limit <= 0 = no cap).
func (t *Tracer) Traces(endpoint string, minDur time.Duration, limit int) []Summary {
	var out []Summary
	for _, td := range t.ring.Load().snapshot() {
		s := summarize(td)
		if endpoint != "" && s.Name != endpoint {
			continue
		}
		if minDur > 0 && td.dur < minDur {
			continue
		}
		out = append(out, s)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Get returns the full tree of a retained trace by 32-char hex ID.
func (t *Tracer) Get(id string) (*TraceJSON, bool) {
	tid, ok := ParseTraceID(id)
	if !ok {
		return nil, false
	}
	td := t.ring.Load().get(tid)
	if td == nil {
		return nil, false
	}
	return export(td), true
}

// WriteFile atomically writes the full tree of the trace with the given ID
// to path (temp file + rename, the repo's crash-safe write discipline) —
// the ibtrain -trace-out sink.
func (t *Tracer) WriteFile(id, path string) error {
	tj, ok := t.Get(id)
	if !ok {
		return fmt.Errorf("trace: trace %s not retained", id)
	}
	raw, err := json.MarshalIndent(tj, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".trace-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(raw, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// listHandler serves GET /debug/traces: recent retained traces, newest
// first. Query parameters: endpoint (root span name, e.g. serve.similar),
// min_ms (minimum duration), limit (default 50).
func (t *Tracer) listHandler(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 50
	if v := q.Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			limit = n
		}
	}
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		if ms, err := strconv.ParseFloat(v, 64); err == nil && ms > 0 {
			// Clamped in float64: from about 9.3e12 ms up, converting first
			// would overflow to a negative Duration, which filters nothing.
			minDur = time.Duration(math.MaxInt64)
			if ns := ms * float64(time.Millisecond); ns < float64(math.MaxInt64) {
				minDur = time.Duration(ns)
			}
		}
	}
	out := t.Traces(q.Get("endpoint"), minDur, limit)
	if out == nil {
		out = []Summary{} // render [] rather than null for empty buffers
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// getHandler serves GET /debug/traces/{id}: the full span tree.
func (t *Tracer) getHandler(w http.ResponseWriter, r *http.Request) {
	tj, ok := t.Get(r.PathValue("id"))
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "trace not found (evicted, sampled out, or malformed id)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(tj)
}

// Routes returns the /debug/traces routes for the -debug-addr mux.
func Routes(t *Tracer) []obs.Route {
	return []obs.Route{
		{Pattern: "GET /debug/traces", Handler: http.HandlerFunc(t.listHandler)},
		{Pattern: "GET /debug/traces/{id}", Handler: http.HandlerFunc(t.getHandler)},
	}
}

// Flags are the shared tracing flags of the cmd/ binaries.
type Flags struct {
	Enabled bool
	Sample  float64
	Slow    time.Duration
	Buf     int
}

// BindFlags registers -trace, -trace-sample, -trace-slow and -trace-buf on
// fs and returns the destination struct (read after fs.Parse).
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Enabled, "trace", false,
		"record per-request trace trees (view on -debug-addr /debug/traces)")
	fs.Float64Var(&f.Sample, "trace-sample", 0.01,
		"probability a fast, error-free trace is retained (error and slow traces always are)")
	fs.DurationVar(&f.Slow, "trace-slow", 250*time.Millisecond,
		"always retain traces at least this slow, and log them as slow queries (0 disables)")
	fs.IntVar(&f.Buf, "trace-buf", DefaultCapacity,
		"retained-trace ring buffer capacity")
	return f
}

// Apply configures t from the parsed flags and enables it when -trace was
// set.
func (f *Flags) Apply(t *Tracer) {
	t.SetSampleRate(f.Sample)
	t.SetSlowThreshold(f.Slow)
	if f.Buf != t.Capacity() {
		t.SetCapacity(f.Buf)
	}
	t.SetEnabled(f.Enabled)
}
