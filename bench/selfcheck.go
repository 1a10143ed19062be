package main

import (
	"context"
	"fmt"
	"math"
	"os"
)

// setSummary is one set of runs of one metric.
type setSummary struct {
	q1, median, q3 float64
}

// spread is the distance between the quartiles as a share of the median.
func (s setSummary) spread() float64 { return ratio(s.q3-s.q1, math.Abs(s.median)) }

func summarize(xs []float64) setSummary {
	q1, q2, q3 := quartiles(xs)
	return setSummary{q1, q2, q3}
}

// verdict compares two sets of runs of one metric the way the benchmark's
// acceptance check does: the second median may not be worse than the first by
// more than the bound, and neither set's quartiles may lie further apart than
// the bound (set-up time is exempt from the second rule).
func verdict(d metricDef, a, b setSummary) (gap float64, ok bool) {
	gap = ratio(b.median-a.median, math.Abs(a.median))
	if d.Better == "higher" {
		gap = -gap
	}
	ok = gap <= d.Bound
	if d.Name != "setup_s" && (a.spread() > d.Bound || b.spread() > d.Bound) {
		ok = false
	}
	return gap, ok
}

// selfCheck is the A/A check: two sets of timed runs of the same code on the
// same seeds, interleaved so that drift of the host hits both alike, compared
// with the rule a change would be judged by. It returns the exit code.
func selfCheck(ctx context.Context, env *environment, selected []workload, opt options) int {
	const runs = 10 // per set and workload, as many as the acceptance check makes
	// values[set][workload][metric] lists one value per run.
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for _, wl := range selected {
			values[s][wl.Name] = map[string][]float64{}
		}
	}
	for i := 0; i < runs; i++ {
		for _, wl := range selected {
			for n := 0; n < 2; n++ {
				set := (i + n) % 2 // alternate which set runs first
				res, err := runWorkload(ctx, env, wl, options{seed: opt.seed + int64(i), seconds: opt.seconds})
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck %s: %v\n", wl.Name, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: selfcheck %s: incorrect: %v\n", wl.Name, res.Errors)
					return 1
				}
				for _, d := range endToEnd {
					values[set][wl.Name][d.Name] = append(values[set][wl.Name][d.Name], res.Metrics[d.Name])
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d set %c %s qps %.1f p50 %.3f p99 %.3f\n", i+1, runs, 'A'+rune(set),
					wl.Name, res.Metrics["qps"], res.Metrics["p50_ms"], res.Metrics["p99_ms"])
			}
		}
	}

	code := 0
	fmt.Printf("A/A check: %d runs per set, %d s each, seeds %d..%d\n", runs, opt.seconds, opt.seed, opt.seed+int64(runs)-1)
	fmt.Printf("%-14s %-13s %10s %8s %10s %8s %8s %6s\n", "workload", "metric", "median A", "spread A", "median B", "spread B", "gap", "bound")
	for _, wl := range selected {
		for _, d := range endToEnd {
			a, b := summarize(values[0][wl.Name][d.Name]), summarize(values[1][wl.Name][d.Name])
			gap, ok := verdict(d, a, b)
			mark := ""
			if !ok {
				mark, code = "  EXCEEDED", 1
			}
			fmt.Printf("%-14s %-13s %10.4f %7.2f%% %10.4f %7.2f%% %+7.2f%% %5.1f%%%s\n", wl.Name, d.Name,
				a.median, 100*a.spread(), b.median, 100*b.spread(), 100*gap, 100*d.Bound, mark)
		}
	}
	return code
}
