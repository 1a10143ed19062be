package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// spanRec is one span of the trace file: the driver's own client.request
// spans and every span of the trees the binaries kept for the same trace
// ids, flattened onto one clock.
type spanRec struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	Process  string `json:"process"` // "bench", "ibserve", "shard0", "ibrouter", …
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// treeSpan and traceTree decode GET /debug/traces/{id}.
type treeSpan struct {
	SpanID   string      `json:"span_id"`
	ParentID string      `json:"parent_id"`
	Name     string      `json:"name"`
	StartUS  int64       `json:"start_us"`
	DurUS    int64       `json:"duration_us"`
	Children []*treeSpan `json:"children"`
}

type traceTree struct {
	TraceID string    `json:"trace_id"`
	Start   time.Time `json:"start"`
	Root    *treeSpan `json:"root"`
	process string    // who kept the tree: "ibserve", "shard0", "ibrouter", …
}

// traceIDs returns the W3C trace and span id the driver gives the request at
// a stream position: unique within a run, never all zero.
func traceIDs(seed int64, pos int) (traceID, spanID string) {
	return fmt.Sprintf("%016x%016x", uint64(seed)+1, uint64(pos)+1), fmt.Sprintf("%016x", uint64(pos)+1)
}

func traceparent(seed int64, pos int) string {
	tid, sid := traceIDs(seed, pos)
	return "00-" + tid + "-" + sid + "-01"
}

// fetchTree gets one retained trace from a process's debug listener.
func fetchTree(p *proc, traceID string) (*traceTree, error) {
	t := traceTree{process: p.name}
	if err := getJSON("http://"+p.debug+"/debug/traces/"+traceID, &t); err != nil {
		return nil, err
	}
	if t.Root == nil {
		return nil, fmt.Errorf("%s: trace %s has no root span", p.name, traceID)
	}
	return &t, nil
}

// selfUS is a span's self time: its duration minus the part of it its
// children cover (overlapping children count once). par.* children are left
// inside their parent: they are the parent's own loop cut into slices, not a
// call into another layer.
func selfUS(s *treeSpan) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range s.Children {
		if strings.HasPrefix(c.Name, "par.") {
			continue
		}
		lo, hi := max(c.StartUS, s.StartUS), min(c.StartUS+c.DurUS, s.StartUS+s.DurUS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			covered += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return s.DurUS - covered
}

// walk visits every span of a tree.
func walk(s *treeSpan, fn func(*treeSpan)) {
	fn(s)
	for _, c := range s.Children {
		walk(c, fn)
	}
}

// traceJoin collects the traced run: per request, the client span and the
// trees of every serving process.
type traceJoin struct {
	spans []spanRec
	// Per-request values in ms, reduced to medians by layerRun.
	client, net, serveShell, topkSelf, whitespaceSelf, recommendSelf, routerShell []float64
}

func usToMs(us int64) float64 { return float64(us) / 1000 }

// add joins one request: its client span with the trees fetched for its
// trace id. entry is the tree of the process the request was sent to; shards
// holds the shard trees behind a router and is empty otherwise.
func (j *traceJoin) add(traceID, spanID string, endpoint int, start, end time.Time, entry *traceTree, shards []*traceTree) {
	j.spans = append(j.spans, spanRec{TraceID: traceID, SpanID: spanID, Name: "client.request", Process: "bench",
		StartNs: start.UnixNano(), EndNs: end.UnixNano()})
	for _, t := range append([]*traceTree{entry}, shards...) {
		base := t.Start.UnixNano()
		walk(t.Root, func(s *treeSpan) {
			j.spans = append(j.spans, spanRec{TraceID: traceID, SpanID: s.SpanID, ParentID: s.ParentID, Name: s.Name,
				Process: t.process, StartNs: base + s.StartUS*1000, EndNs: base + (s.StartUS+s.DurUS)*1000})
		})
	}

	clientMs := ms(end.Sub(start))
	j.client = append(j.client, clientMs)
	j.net = append(j.net, clientMs-usToMs(entry.Root.DurUS))
	serveTrees := shards
	if len(shards) == 0 {
		serveTrees = []*traceTree{entry}
	} else if endpointNames[endpoint] != "recommend" {
		// The router answers when its slowest shard has; what is left of its
		// span is its own shell and the hop. Recommendations take two rounds
		// of shard calls under one trace id, and a shard keeps one tree per
		// id, so they are left out of this one number.
		var slowest int64
		for _, t := range shards {
			slowest = max(slowest, t.Root.DurUS)
		}
		j.routerShell = append(j.routerShell, usToMs(entry.Root.DurUS-slowest))
	}
	for _, t := range serveTrees {
		j.serveShell = append(j.serveShell, usToMs(selfUS(t.Root)))
		walk(t.Root, func(s *treeSpan) {
			switch s.Name {
			case "core.topk":
				j.topkSelf = append(j.topkSelf, usToMs(selfUS(s)))
			case "core.whitespace":
				j.whitespaceSelf = append(j.whitespaceSelf, usToMs(selfUS(s)))
			case "core.recommend":
				j.recommendSelf = append(j.recommendSelf, usToMs(selfUS(s)))
			}
		})
	}
}

// write stores the spans of the traced run as one JSON file.
func (j *traceJoin) write(path, workload string, seed int64) error {
	raw, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []spanRec `json:"spans"`
	}{workload, seed, j.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
