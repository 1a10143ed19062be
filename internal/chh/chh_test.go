package chh

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func mustExact(t *testing.T, v, depth int) *Exact {
	t.Helper()
	e, err := NewExact(v, depth)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewExactValidation(t *testing.T) {
	if _, err := NewExact(0, 1); err == nil {
		t.Fatal("v=0 accepted")
	}
	if _, err := NewExact(5, 3); err == nil {
		t.Fatal("depth=3 accepted")
	}
	if _, err := NewExact(5, 0); err == nil {
		t.Fatal("depth=0 accepted")
	}
}

func TestFitRejectsBadTokens(t *testing.T) {
	e := mustExact(t, 3, 2)
	if err := e.Fit([][]int{{0, 7}}); err == nil {
		t.Fatal("bad token accepted")
	}
}

func TestCondProbDepth1(t *testing.T) {
	e := mustExact(t, 3, 1)
	// transitions: 0->1 three times, 0->2 once
	if err := e.Fit([][]int{{0, 1}, {0, 1}, {0, 1}, {0, 2}}); err != nil {
		t.Fatal(err)
	}
	if got := e.CondProb([]int{0}, 1); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("P(1|0) = %v, want 0.75", got)
	}
	if got := e.CondProb([]int{0}, 2); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("P(2|0) = %v, want 0.25", got)
	}
}

func TestCondProbDepth2AndBackoff(t *testing.T) {
	e := mustExact(t, 4, 2)
	// context (0,1) always followed by 2; context (3,1) always followed by 0
	if err := e.Fit([][]int{{0, 1, 2}, {0, 1, 2}, {3, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	if got := e.CondProb([]int{0, 1}, 2); got != 1 {
		t.Fatalf("P(2|0,1) = %v, want 1 (depth-2 context)", got)
	}
	if got := e.CondProb([]int{3, 1}, 0); got != 1 {
		t.Fatalf("P(0|3,1) = %v, want 1", got)
	}
	// unseen depth-2 context (2,1) backs off to depth-1 P(.|1): 2/3 for 2
	if got := e.CondProb([]int{2, 1}, 2); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("backoff P(2|?,1) = %v, want 2/3", got)
	}
	// unseen depth-1 context backs off to unconditional
	got := e.CondProb([]int{2}, 2)
	want := e.Count0[2] / e.Total0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("depth-0 backoff = %v, want %v", got, want)
	}
	// empty context: unconditional
	if got := e.CondProb(nil, 1); math.Abs(got-e.Count0[1]/e.Total0) > 1e-12 {
		t.Fatalf("empty-context prob = %v", got)
	}
}

func TestCondProbOutOfRange(t *testing.T) {
	e := mustExact(t, 3, 1)
	if e.CondProb([]int{0}, 9) != 0 || e.CondProb([]int{0}, -1) != 0 {
		t.Fatal("out-of-range item should have probability 0")
	}
	// untrained model: everything 0
	if e.CondProb([]int{0}, 1) != 0 {
		t.Fatal("untrained model should return 0")
	}
}

func TestDistSumsToOneWhenTrained(t *testing.T) {
	e := mustExact(t, 5, 2)
	g := rng.New(1)
	seqs := make([][]int, 100)
	for i := range seqs {
		s := make([]int, 6)
		for j := range s {
			s[j] = g.Intn(5)
		}
		seqs[i] = s
	}
	if err := e.Fit(seqs); err != nil {
		t.Fatal(err)
	}
	for _, ctx := range [][]int{{0}, {1, 2}, {4, 4}, nil} {
		d := e.Dist(ctx)
		var sum float64
		for _, p := range d {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dist(%v) sums to %v", ctx, sum)
		}
	}
}

func TestHeavyHitters(t *testing.T) {
	e := mustExact(t, 4, 2)
	seqs := [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 2}, {3, 3}}
	if err := e.Fit(seqs); err != nil {
		t.Fatal(err)
	}
	hh := e.HeavyHitters(0.7, 2)
	// (0)->1 with prob 0.75 qualifies; (3)->3 has support 1 < 2, excluded
	found := false
	for _, h := range hh {
		if len(h.Context) == 1 && h.Context[0] == 0 && h.Item == 1 {
			found = true
			if math.Abs(h.Prob-0.75) > 1e-12 {
				t.Fatalf("HH prob = %v", h.Prob)
			}
		}
		if h.Context[0] == 3 {
			t.Fatal("low-support context leaked into heavy hitters")
		}
	}
	if !found {
		t.Fatalf("expected heavy hitter (0)->1, got %+v", hh)
	}
	// sorted by probability descending
	for i := 1; i < len(hh); i++ {
		if hh[i].Prob > hh[i-1].Prob+1e-12 {
			t.Fatal("heavy hitters not sorted")
		}
	}
}
