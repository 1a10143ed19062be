package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of an ascending slice: the
// value at rank ceil(q·n), the smallest value with at least a share q of the
// samples at or below it. It never interpolates, so every reported
// percentile is a latency some request really had.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns xs in ascending order without touching the argument.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median: for an even count the lower of the two
// middle values.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns (the
// default "exclusive" method), because that is the rule the acceptance check
// of this benchmark is written in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// sample is one request as the load generator saw it. Times are offsets
// from the start of the measured span.
type sample struct {
	endpoint int           // index into endpointNames
	done     time.Duration // when the response body had been read
	latency  time.Duration // closed loop: from send; open loop: from the due time
	late     time.Duration // open loop: how long after its due time it was sent
	ok       bool          // 200 and a well-formed body
	stalled  bool          // open loop: queued behind a stall of the host
}

// windowStats is one window of the measured span.
type windowStats struct {
	OK    int     `json:"ok"`
	QPS   float64 `json:"qps"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
}

// reduced is the measured span reduced to the numbers the report prints.
type reduced struct {
	Windows []windowStats `json:"windows"`
	// RawQPS, RawP50ms and RawP99ms are medians over the windows, as the
	// clock read them: one bad window leaves the median where it was.
	RawQPS   float64 `json:"raw_qps"`
	RawP50ms float64 `json:"raw_p50_ms"`
	RawP99ms float64 `json:"raw_p99_ms"`
	// Slowdown is how much slower than its own best the host ran during the
	// span (hostMeter). QPS, P50ms and P99ms are the raw numbers with that
	// factor taken out: what the span would have read on the undisturbed
	// host. The open loop's rate is set by its schedule, not by the host's
	// speed, and stays as it is.
	Slowdown float64 `json:"host_slowdown"`
	QPS      float64 `json:"qps"`
	P50ms    float64 `json:"p50_ms"`
	P99ms    float64 `json:"p99_ms"`
	// Stalled counts the requests a stall of the whole machine held up; they
	// are left out of the windows' percentiles and kept in everything else.
	Stalled int `json:"stalled"`
	// The whole-span numbers keep visible what the windows hide: every OK
	// request, stalled or not, nothing taken out.
	P99WholeMs float64 `json:"p99_whole_ms"`
	MaxMs      float64 `json:"max_ms"`
	// MinWindowOK is the smallest per-window sample count: a window's p99
	// has MinWindowOK/100 samples beyond it.
	MinWindowOK int `json:"min_window_ok"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reduceWindows cuts the span into n windows of length w by completion
// time, takes completed-OK requests per second and the nearest-rank p50 and
// p99 of each window, and reports the median of each over the windows, raw
// and with the host's slowdown taken out. A sample completed after the last
// window counts only in the whole-span numbers.
func reduceWindows(samples []sample, n int, w time.Duration, slowdown float64, closedLoop bool) reduced {
	perWindow := make([][]float64, n)
	completed := make([]int, n)
	var whole []float64
	r := reduced{Windows: make([]windowStats, n), MinWindowOK: math.MaxInt, Slowdown: slowdown}
	for _, s := range samples {
		if !s.ok {
			continue
		}
		whole = append(whole, ms(s.latency))
		if s.stalled {
			r.Stalled++
		}
		if i := int(s.done / w); s.done >= 0 && i < n {
			completed[i]++
			if !s.stalled {
				perWindow[i] = append(perWindow[i], ms(s.latency))
			}
		}
	}
	var qps, p50, p99 []float64
	for i, lat := range perWindow {
		sort.Float64s(lat)
		ws := windowStats{
			OK:    len(lat),
			QPS:   float64(completed[i]) / w.Seconds(),
			P50ms: quantile(lat, 0.50),
			P99ms: quantile(lat, 0.99),
		}
		r.Windows[i] = ws
		qps, p50, p99 = append(qps, ws.QPS), append(p50, ws.P50ms), append(p99, ws.P99ms)
		r.MinWindowOK = min(r.MinWindowOK, ws.OK)
	}
	if n == 0 {
		r.MinWindowOK = 0
	}
	r.RawQPS, r.RawP50ms, r.RawP99ms = median(qps), median(p50), median(p99)
	r.QPS, r.P50ms, r.P99ms = r.RawQPS, r.RawP50ms/slowdown, r.RawP99ms/slowdown
	if closedLoop {
		r.QPS = r.RawQPS * slowdown
	}
	sort.Float64s(whole)
	r.P99WholeMs = quantile(whole, 0.99)
	if len(whole) > 0 {
		r.MaxMs = whole[len(whole)-1]
	}
	return r
}
