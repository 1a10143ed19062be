package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// latWindow is a small ring of recent successful shard latencies; its
// quantile sets the hedge delay, so the router hedges exactly the requests
// that are slower than this shard's own recent behaviour.
type latWindow struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	full bool
}

const latWindowSize = 128

func newLatWindow() *latWindow { return &latWindow{buf: make([]time.Duration, latWindowSize)} }

func (w *latWindow) Record(d time.Duration) {
	w.mu.Lock()
	w.buf[w.next] = d
	w.next++
	if w.next == len(w.buf) {
		w.next, w.full = 0, true
	}
	w.mu.Unlock()
}

// Quantile returns the q-quantile of the recorded window, or 0 when empty.
func (w *latWindow) Quantile(q float64) time.Duration {
	w.mu.Lock()
	n := w.next
	if w.full {
		n = len(w.buf)
	}
	tmp := make([]time.Duration, n)
	copy(tmp, w.buf[:n])
	w.mu.Unlock()
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	return stats.NearestRank(tmp, q)
}

// shard is the router's view of one backend: its base URL, breaker,
// readiness flag (maintained by the probe loop), latency window and
// per-shard metric series (the obs registry has no labels, so each shard
// gets its own router_shard{i}_* names).
type shard struct {
	index int
	base  string // e.g. http://127.0.0.1:8081

	br    *breaker
	ready atomic.Bool
	lat   *latWindow

	mFanout    *obs.Histogram // router_shard{i}_fanout_latency_seconds
	mHedges    *obs.Counter   // router_shard{i}_hedges_total
	mHedgeWins *obs.Counter   // router_shard{i}_hedge_wins_total
	mFailures  *obs.Counter   // router_shard{i}_failures_total
}

func newShard(index int, base string) *shard {
	p := fmt.Sprintf("router_shard%d_", index)
	sh := &shard{
		index: index,
		base:  base,
		lat:   newLatWindow(),
		mFanout: obs.Default().Histogram(p+"fanout_latency_seconds",
			fmt.Sprintf("latency of answered fan-out calls to shard %d", index), obs.DefBuckets),
		mHedges: obs.Default().Counter(p+"hedges_total",
			fmt.Sprintf("hedge requests fired at shard %d after the quantile delay", index)),
		mHedgeWins: obs.Default().Counter(p+"hedge_wins_total",
			fmt.Sprintf("hedge requests to shard %d that answered before the original", index)),
		mFailures: obs.Default().Counter(p+"failures_total",
			fmt.Sprintf("fan-out calls to shard %d that failed (transport error or 5xx)", index)),
	}
	sh.ready.Store(true)
	return sh
}

// shardResult is one shard's answer to a fan-out call.
type shardResult struct {
	shard   int
	status  int
	body    []byte
	err     error
	skipped bool // breaker open or shard not ready; no request was sent
}

// failed reports whether the shard must be treated as missing: it never got
// the request, the transport failed, or it answered with a server error.
func (r shardResult) failed() bool {
	return r.skipped || r.err != nil || r.status >= 500
}

type attemptResult struct {
	status int
	body   []byte
	err    error
	hedge  bool
	dur    time.Duration
}

// call performs one hedged HTTP request against the shard. The original
// attempt starts immediately; if it has not answered after hedgeDelay a
// second identical attempt is fired and the first answer without a transport
// error wins — the loser's context is cancelled. Only answered attempts feed
// the latency window, so injected failures cannot drag the hedge delay up.
func (sh *shard) call(ctx context.Context, client *http.Client, method, url string,
	body []byte, header http.Header, hedgeDelay time.Duration) shardResult {
	actx, cancel := context.WithCancel(ctx)
	defer cancel() // first winner cancels the outstanding loser
	ch := make(chan attemptResult, 2)
	attempt := func(hedge bool) {
		start := time.Now()
		status, b, err := doRequest(actx, client, method, url, body, header)
		ch <- attemptResult{status: status, body: b, err: err, hedge: hedge, dur: time.Since(start)}
	}
	go attempt(false)
	outstanding := 1

	var hedgeC <-chan time.Time
	if hedgeDelay > 0 {
		t := time.NewTimer(hedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if r.hedge {
					sh.mHedgeWins.Inc()
				}
				sh.lat.Record(r.dur)
				sh.mFanout.Observe(r.dur.Seconds())
				return shardResult{shard: sh.index, status: r.status, body: r.body}
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 {
				// No attempt left in flight. A hedge not yet fired would hit
				// the same failing backend, so give up now.
				return shardResult{shard: sh.index, err: firstErr}
			}
		case <-hedgeC:
			hedgeC = nil
			sh.mHedges.Inc()
			outstanding++
			go attempt(true)
		case <-ctx.Done():
			return shardResult{shard: sh.index, err: ctx.Err()}
		}
	}
}

// doRequest is one plain HTTP exchange: nil error means the shard answered
// (whatever the status); an error is a transport-level failure.
func doRequest(ctx context.Context, client *http.Client, method, url string,
	body []byte, header http.Header) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}
