// Package load is the deterministic replay harness behind cmd/ibload: it
// synthesizes a realistic query mix from a corpus (zipf-skewed company
// popularity, weighted endpoint mix, filter variation) and replays it against
// a running ibserve over HTTP, measuring client-observed latency per
// endpoint.
//
// Two driving modes cover the two questions a serving benchmark answers:
//
//   - open loop: requests depart on a fixed schedule (-rate per second)
//     regardless of how fast responses come back, and each latency is
//     measured from the request's *scheduled* departure — not its actual
//     send — so queueing delay behind a slow server is charged to the
//     server. This is the coordinated-omission correction: a closed-loop
//     client that politely waits for slow responses stops sampling exactly
//     when the server is at its worst.
//   - closed loop: a fixed worker count (-c) issues requests back to back,
//     measuring per-request service time. This answers "how fast can N
//     sequential callers go" rather than "what does a user see at X qps".
//
// Every generated request carries a fresh W3C traceparent header, so a
// server running with -trace joins each replayed request into a trace tree
// and the report can name the trace ID of the slowest request per endpoint —
// paste it into /debug/traces/{id} on the server's debug listener.
//
// The generator is seeded: the same corpus, seed and mix produce the same
// request stream, byte for byte, independent of response timing (in open
// loop; closed-loop scheduling is timing-dependent by nature, but each
// worker's stream is still seed-deterministic).
package load

import (
	"time"
)

// Mix weights the four query endpoints in the generated stream. Weights are
// relative, not normalized; a zero weight removes the endpoint. The zero Mix
// selects DefaultMix.
type Mix struct {
	Similar    float64
	Recommend  float64
	Whitespace float64
	Infer      float64
}

// DefaultMix approximates the sales-tool traffic shape the paper's Section 6
// deployment describes: similarity search dominates, recommendations ride on
// it, white-space prospecting and out-of-corpus scoring are occasional.
var DefaultMix = Mix{Similar: 0.55, Recommend: 0.30, Whitespace: 0.10, Infer: 0.05}

func (m Mix) isZero() bool {
	return m.Similar == 0 && m.Recommend == 0 && m.Whitespace == 0 && m.Infer == 0
}

// Config parameterizes one replay run. Zero values select the documented
// defaults.
type Config struct {
	// BaseURL is the serving address, e.g. "http://localhost:8080".
	BaseURL string
	// OpenLoop selects the fixed-arrival-rate mode (true) or the
	// fixed-concurrency closed loop (false).
	OpenLoop bool
	// Rate is the open-loop arrival rate in requests per second. Default 50.
	Rate float64
	// Concurrency is the closed-loop worker count, and in open loop the cap
	// on in-flight requests (the dispatcher stalls beyond it, which the
	// scheduled-time latency accounting charges to the server). Default 8.
	Concurrency int
	// Duration is the measured span. Default 5s.
	Duration time.Duration
	// Warmup requests are sent and drained but excluded from the report
	// (connection establishment, first-touch page faults and allocations).
	// Default 0.
	Warmup time.Duration
	// Timeout is the per-request client deadline. Default 10s.
	Timeout time.Duration
	// Trace sends the generated traceparent header with each request. The
	// header stream is generated either way so the request mix is identical
	// with tracing on and off.
	Trace bool
	// Label tags the report (Report.Label) so combined benchmark files can
	// tell runs apart, e.g. "unsharded" vs "sharded_router_3".
	Label string
}

func (c Config) withDefaults() Config {
	if c.Rate <= 0 {
		c.Rate = 50
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	return c
}
