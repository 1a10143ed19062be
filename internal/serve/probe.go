package serve

import (
	"context"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

// probeCount is P, the number of company ids a generation is judged on.
const probeCount = 256

var (
	annObservedRecall = obs.Default().Gauge("ann_observed_recall",
		"probe recall@k of the serving generation: mean share of each probe's exact top-k its served answer holds (1 on an exact index)")
	reloadJaccard = obs.Default().Gauge("serve_reload_jaccard",
		"mean result-set Jaccard similarity between the serving and incoming generations over the probes of the last reload")
)

// probeIDs returns the probe ids over companies [0, n): P ids evenly spaced
// as i·n/P, or every id when n < P. They depend on n alone, so the same pair
// of generations is always judged on the same queries.
func probeIDs(n int) []int {
	ids := make([]int, min(n, probeCount))
	for i := range ids {
		ids[i] = i * n / len(ids)
	}
	return ids
}

// probe answers every probe as an unfiltered top-k through ix's configured
// scan path. The scans run on par workers like the other boot and reload
// stages; the answers come back in probe order at any worker count.
func probe(ctx context.Context, ix *core.Index, ids []int, k int) ([][]core.Match, error) {
	return par.Map(ctx, len(ids), func(i int) ([]core.Match, error) {
		return ix.TopKContext(ctx, ids[i], k, core.Filter{})
	})
}

// probeRecall is the mean recall of served, ix's answers to the probes,
// against the exact answers of a pruner-free copy of ix (the copy shares the
// columns and trees; nothing is rebuilt).
func probeRecall(ctx context.Context, ix *core.Index, ids []int, k int, served [][]core.Match) (float64, error) {
	exactIx := *ix
	exactIx.SetPruner(nil)
	exact, err := probe(ctx, &exactIx, ids, k)
	if err != nil {
		return 0, err
	}
	if len(exact) == 0 {
		return 1, nil
	}
	var sum float64
	for i := range exact {
		sum += recall(served[i], exact[i])
	}
	return sum / float64(len(exact)), nil
}

// indexRecall is ix's probe recall over all its ids. An index without a
// pruner serves the exact answers, so its recall is 1 and it scans nothing.
func indexRecall(ctx context.Context, ix *core.Index, k int) (float64, error) {
	if ix.Pruner() == nil {
		return 1, nil
	}
	ids := probeIDs(ix.Corpus.N())
	served, err := probe(ctx, ix, ids, k)
	if err != nil {
		return 0, err
	}
	return probeRecall(ctx, ix, ids, k, served)
}

// canaryJSON is the probe verdict on an incoming generation, the canary
// block of every /admin/reload response past the loader.
type canaryJSON struct {
	Probes      int     `json:"probes"`
	MeanJaccard float64 `json:"mean_jaccard"`
	MinJaccard  float64 `json:"min_jaccard"`
	// Recall is the incoming generation's probe recall, present only when
	// it routes its scans through a pruner.
	Recall *float64 `json:"recall,omitempty"`
}

// judge answers the probes on the serving and the incoming generation and
// compares the two answer sets. It also measures the incoming generation's
// probe recall: 1 without a pruner, where the served path is the exact one.
func judge(ctx context.Context, cur, next *core.Index, k int) (canaryJSON, float64, error) {
	ids := probeIDs(min(cur.Corpus.N(), next.Corpus.N()))
	old, err := probe(ctx, cur, ids, k)
	if err != nil {
		return canaryJSON{}, 0, err
	}
	now, err := probe(ctx, next, ids, k)
	if err != nil {
		return canaryJSON{}, 0, err
	}
	v := canaryJSON{Probes: len(ids), MeanJaccard: 1, MinJaccard: 1}
	if len(ids) > 0 {
		var sum float64
		for i := range ids {
			j := jaccard(old[i], now[i])
			sum += j
			v.MinJaccard = min(v.MinJaccard, j)
		}
		v.MeanJaccard = sum / float64(len(ids))
	}
	r := 1.0
	if next.Pruner() != nil {
		if r, err = probeRecall(ctx, next, ids, k, now); err != nil {
			return canaryJSON{}, 0, err
		}
		v.Recall = &r
	}
	return v, r, nil
}

// recall is |served ∩ exact| / |exact| over company ids (1 when exact is
// empty): the share of the true top-k the served answer found.
func recall(served, exact []core.Match) float64 {
	if len(exact) == 0 {
		return 1
	}
	in := make(map[int]bool, len(served))
	for _, m := range served {
		in[m.CompanyID] = true
	}
	var hits int
	for _, m := range exact {
		if in[m.CompanyID] {
			hits++
		}
	}
	return float64(hits) / float64(len(exact))
}

// jaccard is |a ∩ b| / |a ∪ b| over result-id sets (1 when both are empty).
func jaccard(a, b []core.Match) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[int]bool, len(a))
	for _, m := range a {
		set[m.CompanyID] = true
	}
	var inter int
	union := len(set)
	seen := make(map[int]bool, len(b))
	for _, m := range b {
		if seen[m.CompanyID] {
			continue
		}
		seen[m.CompanyID] = true
		if set[m.CompanyID] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}
