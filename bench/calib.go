package main

import "time"

// The host this benchmark was written on is a small virtual machine whose
// cores are lent out: for stretches of tens to hundreds of milliseconds a
// core runs at a little over half its speed, the share of such stretches
// drifts between about 30 % and 70 % from minute to minute, and none of it
// shows as steal time. Two runs of identical code then differ by up to a
// quarter in every timing, which no statistic over the run's own requests can
// take out again.
//
// hostMeter measures that interference directly. Every few milliseconds,
// while no request is in flight, the load generator times one fixed piece of
// arithmetic. The fastest of those timings is what the host does undisturbed;
// the mean over the run, divided by it, is how much slower than its own best
// the host ran during the run.
type hostMeter struct {
	last    time.Time
	burstNs []float64
}

const (
	// burstEvery spaces the bursts; at about 100 µs each they take 2 % of the
	// generator's time.
	burstEvery  = 5 * time.Millisecond
	burstTarget = 100 * time.Microsecond
)

var (
	burstData = func() []float64 {
		d := make([]float64, 8<<10) // 64 KiB: out of L1, well inside L2
		for i := range d {
			d[i] = float64(i%97) / 97
		}
		return d
	}()
	burstSink float64
)

// burstIfDue runs one burst when burstEvery has passed since the last one
// and reports whether it did. A nil meter does nothing.
func (m *hostMeter) burstIfDue() bool {
	if m == nil || time.Since(m.last) < burstEvery {
		return false
	}
	t := time.Now()
	var acc float64
	for pass := 0; pass < 30; pass++ {
		for i := 0; i < len(burstData); i += 4 {
			acc += burstData[i]*0.3 + burstData[i+1]*0.2 + burstData[i+2]*0.4 + burstData[i+3]*0.1
		}
	}
	burstSink += acc
	m.last = time.Now()
	m.burstNs = append(m.burstNs, float64(m.last.Sub(t)))
	return true
}

// slowdown is the mean burst time over the fastest one: at least 1, and 1 on
// a quiet host. The fastest burst is taken, not a low percentile, because on
// a bad day the host leaves under a twentieth of the bursts alone, and
// because nothing makes a burst faster than the hardware allows.
func (m *hostMeter) slowdown() float64 {
	if m == nil || len(m.burstNs) == 0 {
		return 1
	}
	var sum float64
	best := m.burstNs[0]
	for _, v := range m.burstNs {
		sum += v
		best = min(best, v)
	}
	return sum / float64(len(m.burstNs)) / best
}
