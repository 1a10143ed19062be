package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// sloLimit is the latency limit behind slo_share.
const sloLimit = 50 * time.Millisecond

// stallMin is how far one of the open loop's sleeps of at most half a
// millisecond must overrun to count as a stall of the host. Overruns of two to
// four milliseconds are this host's everyday jitter.
const stallMin = 5 * time.Millisecond

// newLoadClient returns the one HTTP client all load goes through. It holds
// one connection: every loop has at most one request in flight.
func newLoadClient() *http.Client {
	return &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// adminClient carries what goes to a serving port and is not load: readiness
// polls and the reload. It keeps no connection open, so a server never holds
// more than the load client's one connection during a span. debugClient talks
// to the debug listeners (metric scrapes, trace fetches) and keeps its
// connections: a traced run fetches thousands of trees.
var (
	adminClient = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	debugClient = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{}}
)

// answer is the part of a response body the checks read. The four endpoints
// use three list names; a body has exactly one of them.
type answer struct {
	Matches []struct {
		ID    int     `json:"company_id"`
		Score float64 `json:"similarity"`
	} `json:"matches"`
	Recommendations []struct {
		Score float64 `json:"strength"`
	} `json:"recommendations"`
	Prospects []struct {
		Score float64 `json:"similarity"`
	} `json:"prospects"`
	Partial bool `json:"partial"`
}

// checkBody verifies that a 200 body is what the endpoint promises:
// decodable JSON, not a partial answer, at most k results, scores in
// non-increasing order.
func checkBody(req *request, body []byte) error {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("undecodable body: %w", err)
	}
	if a.Partial {
		return errors.New("partial answer")
	}
	var scores []float64
	switch endpointNames[req.Endpoint] {
	case "similar", "infer":
		for _, m := range a.Matches {
			scores = append(scores, m.Score)
		}
	case "recommend":
		for _, m := range a.Recommendations {
			scores = append(scores, m.Score)
		}
	case "whitespace":
		for _, m := range a.Prospects {
			scores = append(scores, m.Score)
		}
	}
	if req.K > 0 && len(scores) > req.K {
		return fmt.Errorf("%d results for k=%d", len(scores), req.K)
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1] {
			return fmt.Errorf("scores not in non-increasing order at %d", i)
		}
	}
	return nil
}

// exchange sends one request and reads the whole body. traceparent, when
// not empty, is sent as the W3C header that makes the server join the
// driver's trace.
func exchange(client *http.Client, base string, req *request, traceparent string) (status int, body []byte, err error) {
	var rd io.Reader
	if req.Body != "" {
		rd = strings.NewReader(req.Body)
	}
	hr, err := http.NewRequest(req.Method, base+req.Path, rd)
	if err != nil {
		return 0, nil, err
	}
	if req.Body != "" {
		hr.Header.Set("Content-Type", "application/json")
	}
	if traceparent != "" {
		hr.Header.Set("traceparent", traceparent)
	}
	resp, err := client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// loadSpec says how load is offered: rate 0 is the closed loop, a positive
// rate the open loop at that many requests a second. Either way one client
// sends over one connection: a scan already runs on every core of the server
// (par workers), so a second request in flight beside it and the generator
// measures the scheduler of a two-core host, not the program.
type loadSpec struct {
	rate float64
}

// loadResult is what one span of load produced.
type loadResult struct {
	t0        time.Time // start of the span; sample times are offsets from it
	samples   []sample
	positions []int // stream position of each sample
	attempted int
	failed    int
	firstErr  string // the first failure, for the report
	next      int    // stream position after the span
	stalls    int    // open loop: host stalls the generator saw
	wrapped   bool   // the stream ran out and was replayed from the top
}

func (r *loadResult) record(pos int, s sample, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = err.Error()
		}
	}
	r.samples = append(r.samples, s)
	r.positions = append(r.positions, pos)
}

// take returns the next stream position, replaying from the top when the
// stream runs out.
func (r *loadResult) take(n int) int {
	if r.next == n {
		r.next, r.wrapped = 0, true
	}
	r.next++
	return r.next - 1
}

// do sends one request, checks the answer and returns the sample; t0 is the
// span start and from the instant latency counts from.
func do(client *http.Client, base string, req *request, traceparent string, t0, from time.Time) (sample, error) {
	status, body, err := exchange(client, base, req, traceparent)
	now := time.Now()
	s := sample{endpoint: req.Endpoint, done: now.Sub(t0), latency: now.Sub(from)}
	switch {
	case err != nil:
	case status != http.StatusOK:
		err = fmt.Errorf("%s %s: status %d: %s", req.Method, req.Path, status, tail(string(body), 200))
	default:
		if err = checkBody(req, body); err != nil {
			err = fmt.Errorf("%s %s: %w", req.Method, req.Path, err)
		}
	}
	s.ok = err == nil
	return s, err
}

// runLoad replays the stream from position start for dur — or, when count is
// positive, for exactly count requests. header, when not nil, gives the
// traceparent to send with the request at a stream position. meter, when not
// nil, times its fixed piece of work every few milliseconds, always between
// requests and never beside one.
//
// Closed loop: the next request goes out when the answer to the previous one
// has been read and checked.
//
// Open loop: request i is due at t0 + i/rate whatever the server does, and
// its latency counts from that due time, so the wait a slow answer imposes on
// the requests behind it is charged to the server. A request goes out at its
// due time or, when the answer before it is still outstanding, as soon as
// that has been read; the delay shows both in its latency and in late. A
// stall of the whole machine, which the generator sees in its own sleeps,
// marks the requests it held up as stalled.
func runLoad(ctx context.Context, client *http.Client, base string, stream []request, start int,
	spec loadSpec, dur time.Duration, count int, header func(pos int) string, meter *hostMeter) loadResult {
	res := loadResult{next: start, t0: time.Now()}
	traceparent := func(pos int) string {
		if header == nil {
			return ""
		}
		return header(pos)
	}
	if spec.rate == 0 {
		for i := 0; ctx.Err() == nil; i++ {
			if count > 0 && i == count || count == 0 && time.Since(res.t0) >= dur {
				break
			}
			meter.burstIfDue()
			pos := res.take(len(stream))
			s, err := do(client, base, &stream[pos], traceparent(pos), res.t0, time.Now())
			res.record(pos, s, err)
		}
		return res
	}
	if count == 0 {
		count = int(spec.rate * dur.Seconds())
	}
	interval := time.Duration(float64(time.Second) / spec.rate)
	// behind is true from a host stall until the generator is ahead of its
	// schedule again: the requests sent in between queued behind the stall.
	behind := false
	for i := 0; i < count && ctx.Err() == nil; i++ {
		due := res.t0.Add(time.Duration(i) * interval)
		if time.Until(due) > 0 {
			behind = false
		}
		// Wait for the due time in sleeps of at most half a millisecond,
		// metering the host in between. A sleep that short overrunning by
		// stallMin means the machine, not the server, held the generator up.
		for d := time.Until(due); d > 0; d = time.Until(due) {
			if d > 4*burstTarget && meter.burstIfDue() {
				continue
			}
			d = min(d, 500*time.Microsecond)
			t := time.Now()
			time.Sleep(d)
			if time.Since(t)-d >= stallMin {
				behind = true
				res.stalls++
			}
		}
		pos := res.take(len(stream))
		late := time.Since(due)
		s, err := do(client, base, &stream[pos], traceparent(pos), res.t0, due)
		s.late, s.stalled = late, behind
		res.record(pos, s, err)
	}
	return res
}
