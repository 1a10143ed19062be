// Package chh implements Conditional Heavy Hitters over product-acquisition
// streams: (context, item) pairs whose conditional probability
// P(item | context) is high. The paper's recommender baseline uses *exact*
// conditional heavy hitters with context depth 2 (Mirylenka et al., The VLDB
// Journal 24(3), 2015), i.e. exact time-dependent association rules on the
// previous one or two products.
package chh

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/snapshot"
)

// KindModel is the snapshot container kind for serialized exact-CHH models.
const KindModel = "chh-model"

// Exact counts every (context, next) pair exactly. With the paper's
// vocabulary (M = 38) the context universe is tiny (38 + 38² contexts), so
// exact counting is the reference implementation.
type Exact struct {
	V     int // vocabulary size
	Depth int // maximum context depth (1 or 2)

	// Depth-1 statistics: count1[prev][next], total1[prev].
	Count1 map[int][]float64
	Total1 map[int]float64
	// Depth-2 statistics: count2[{prev2, prev1}][next], total2[...].
	Count2 map[[2]int][]float64
	Total2 map[[2]int]float64
	// Unconditional counts, the depth-0 fallback.
	Count0 []float64
	Total0 float64
}

// NewExact creates an empty exact-CHH model. depth must be 1 or 2; the
// paper chooses 2 based on its trigram sequentiality tests.
func NewExact(v, depth int) (*Exact, error) {
	if v < 1 {
		return nil, fmt.Errorf("chh: vocabulary size must be positive, got %d", v)
	}
	if depth != 1 && depth != 2 {
		return nil, fmt.Errorf("chh: depth must be 1 or 2, got %d", depth)
	}
	e := &Exact{
		V:      v,
		Depth:  depth,
		Count1: make(map[int][]float64),
		Total1: make(map[int]float64),
		Count0: make([]float64, v),
	}
	if depth == 2 {
		e.Count2 = make(map[[2]int][]float64)
		e.Total2 = make(map[[2]int]float64)
	}
	return e, nil
}

// Fit accumulates transition counts from acquisition sequences. It may be
// called repeatedly (streaming updates).
func (e *Exact) Fit(sequences [][]int) error {
	for si, seq := range sequences {
		for i, tok := range seq {
			if tok < 0 || tok >= e.V {
				return fmt.Errorf("chh: sequence %d token %d outside [0,%d)", si, tok, e.V)
			}
			e.Count0[tok]++
			e.Total0++
			if i >= 1 {
				prev := seq[i-1]
				row := e.Count1[prev]
				if row == nil {
					row = make([]float64, e.V)
					e.Count1[prev] = row
				}
				row[tok]++
				e.Total1[prev]++
			}
			if e.Depth == 2 && i >= 2 {
				key := [2]int{seq[i-2], seq[i-1]}
				row := e.Count2[key]
				if row == nil {
					row = make([]float64, e.V)
					e.Count2[key] = row
				}
				row[tok]++
				e.Total2[key]++
			}
		}
	}
	return nil
}

// CondProb returns the conditional probability P(next | context) using the
// deepest context with support, backing off depth 2 -> 1 -> 0. The context
// slice holds earlier tokens first; only its last Depth entries are used.
func (e *Exact) CondProb(context []int, next int) float64 {
	if next < 0 || next >= e.V {
		return 0
	}
	n := len(context)
	if e.Depth == 2 && n >= 2 {
		key := [2]int{context[n-2], context[n-1]}
		if tot := e.Total2[key]; tot > 0 {
			return e.Count2[key][next] / tot
		}
	}
	if n >= 1 {
		prev := context[n-1]
		if tot := e.Total1[prev]; tot > 0 {
			return e.Count1[prev][next] / tot
		}
	}
	if e.Total0 > 0 {
		return e.Count0[next] / e.Total0
	}
	return 0
}

// Dist returns the full conditional next-product distribution for a context.
func (e *Exact) Dist(context []int) []float64 {
	out := make([]float64, e.V)
	for next := 0; next < e.V; next++ {
		out[next] = e.CondProb(context, next)
	}
	return out
}

// HeavyHitter is one discovered conditional heavy hitter.
type HeavyHitter struct {
	Context []int   // 1 or 2 earlier tokens, oldest first
	Item    int     //
	Prob    float64 // P(item | context)
	Support float64 // number of times the context occurred
}

// HeavyHitters lists all (context, item) pairs with conditional probability
// at least phi and context support at least minSupport, sorted by
// probability descending (ties: higher support first, then lexicographic).
func (e *Exact) HeavyHitters(phi, minSupport float64) []HeavyHitter {
	var out []HeavyHitter
	for prev, row := range e.Count1 {
		tot := e.Total1[prev]
		if tot < minSupport {
			continue
		}
		for next, c := range row {
			if p := c / tot; p >= phi && c > 0 {
				out = append(out, HeavyHitter{Context: []int{prev}, Item: next, Prob: p, Support: tot})
			}
		}
	}
	if e.Depth == 2 {
		for key, row := range e.Count2 {
			tot := e.Total2[key]
			if tot < minSupport {
				continue
			}
			for next, c := range row {
				if p := c / tot; p >= phi && c > 0 {
					out = append(out, HeavyHitter{Context: []int{key[0], key[1]}, Item: next, Prob: p, Support: tot})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if len(out[i].Context) != len(out[j].Context) {
			return len(out[i].Context) < len(out[j].Context)
		}
		for k := range out[i].Context {
			if out[i].Context[k] != out[j].Context[k] {
				return out[i].Context[k] < out[j].Context[k]
			}
		}
		return out[i].Item < out[j].Item
	})
	return out
}

type gobExact struct {
	V      int
	Depth  int
	Count1 map[int][]float64
	Total1 map[int]float64
	Count2 map[[2]int][]float64
	Total2 map[[2]int]float64
	Count0 []float64
	Total0 float64
}

// Save serializes the model into a checksummed snapshot container of kind
// KindModel.
func (e *Exact) Save(w io.Writer) error {
	return snapshot.Write(w, KindModel, gobExact(*e))
}

// Load deserializes a model written by Save, rejecting containers whose
// payload decodes to an inconsistent model.
func Load(r io.Reader) (*Exact, error) {
	var g gobExact
	if err := snapshot.Read(r, KindModel, &g); err != nil {
		return nil, fmt.Errorf("chh: loading model: %w", err)
	}
	if g.V < 1 || (g.Depth != 1 && g.Depth != 2) || len(g.Count0) != g.V {
		return nil, fmt.Errorf("chh: corrupt model (V %d, depth %d)", g.V, g.Depth)
	}
	for _, counts := range g.Count1 {
		if len(counts) != g.V {
			return nil, fmt.Errorf("chh: corrupt depth-1 table")
		}
	}
	for _, counts := range g.Count2 {
		if len(counts) != g.V {
			return nil, fmt.Errorf("chh: corrupt depth-2 table")
		}
	}
	e := Exact(g)
	return &e, nil
}
