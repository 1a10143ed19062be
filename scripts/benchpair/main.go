// Command benchpair summarises alternating parent/change runs of the
// repository's benchmark the way the choosing-metrics guide (§8) asks: per
// end-to-end metric each side's median and quartiles, the pairs each side
// won, and a verdict against the bound BENCHMARK.json fixes. It only reads:
// scripts/bench_pair.sh makes the runs and feeds it one line per run,
//
//	<parent|change> <pair> <last stdout line of `go run -C bench . --workload W`>
//
// on standard input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/stats"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpair:", err)
	os.Exit(1)
}

func main() {
	benchmark := flag.String("benchmark", "BENCHMARK.json", "benchmark declaration to take metric names, directions and bounds from")
	flag.Parse()
	raw, err := os.ReadFile(*benchmark)
	if err != nil {
		fatal(err)
	}
	var decl struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		fatal(fmt.Errorf("%s: %w", *benchmark, err))
	}

	// runs[side][pair]
	runs := map[string]map[string]resultLine{"parent": {}, "change": {}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.SplitN(sc.Text(), " ", 3)
		if len(fields) != 3 || runs[fields[0]] == nil {
			fatal(fmt.Errorf("malformed input line %q", sc.Text()))
		}
		var r resultLine
		if err := json.Unmarshal([]byte(fields[2]), &r); err != nil {
			fatal(fmt.Errorf("%s run of pair %s: %w", fields[0], fields[1], err))
		}
		runs[fields[0]][fields[1]] = r
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	var pairs []string
	for p := range runs["parent"] {
		if _, ok := runs["change"][p]; ok {
			pairs = append(pairs, p)
		}
	}
	if len(pairs) == 0 {
		fatal(fmt.Errorf("no complete parent/change pair on standard input"))
	}

	for _, side := range []string{"parent", "change"} {
		var attempted, failed, incorrect int
		for _, p := range pairs {
			r := runs[side][p]
			attempted += r.Attempted
			failed += r.Failed
			if !r.Correct {
				incorrect++
			}
		}
		fmt.Printf("%-6s %d runs, %d of %d requests failed, %d runs not correct\n", side, len(pairs), failed, attempted, incorrect)
	}
	fmt.Printf("\n%-13s %-6s %28s %28s %8s %7s  %s\n", "metric", "unit",
		"parent median [q1, q3]", "change median [q1, q3]", "change", "wins", "verdict")
	for _, d := range decl.EndToEnd {
		var parent, change []float64
		var won, lost int
		for _, p := range pairs {
			a, b := runs["parent"][p].Metrics[d.Name].Value, runs["change"][p].Metrics[d.Name].Value
			parent, change = append(parent, a), append(change, b)
			switch {
			case a == b:
			case (b > a) == (d.Better == "higher"):
				won++
			default:
				lost++
			}
		}
		pm, cm := stats.Quantile(parent, 0.5), stats.Quantile(change, 0.5)
		pq1, pq3 := stats.Quantile(parent, 0.25), stats.Quantile(parent, 0.75)
		// gain > 0 when the change's median is better, as a share of the parent's.
		gain := 0.0
		if pm != 0 {
			gain = (cm - pm) / pm
			if d.Better != "higher" {
				gain = -gain
			}
		}
		gap := cm - pm
		if gap < 0 {
			gap = -gap
		}
		verdict := "within bound"
		switch {
		case gain > 0 && 10*won >= 9*len(pairs) && gap > pq3-pq1:
			verdict = "gain (§8: wins >= 9/10 of pairs, median gap > parent IQR)"
		case gain < -d.Bound:
			verdict = fmt.Sprintf("REGRESSION beyond bound %.3g", d.Bound)
		case pm != 0 && (pq3-pq1)/pm > d.Bound:
			verdict = fmt.Sprintf("unresolved: parent IQR wider than bound %.3g", d.Bound)
		}
		fmt.Printf("%-13s %-6s %28s %28s %+7.1f%% %3d/%-3d  %s\n", d.Name, d.Unit,
			fmt.Sprintf("%.4g [%.4g, %.4g]", pm, pq1, pq3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", cm, stats.Quantile(change, 0.25), stats.Quantile(change, 0.75)),
			100*gain, won, lost, verdict)
	}
	fmt.Println("\nchange: median gain as a share of the parent's median, positive = better; wins: pairs the change won/lost, ties count for neither")
}
