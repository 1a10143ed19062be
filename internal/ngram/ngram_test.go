package ngram

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func mustModel(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Order: 0, V: 5},
		{Order: 4, V: 5},
		{Order: 2, V: 0},
		{Order: 2, V: 5, Lambda: []float64{1}},
		{Order: 2, V: 5, Lambda: []float64{0.5, 0.6}},
		{Order: 2, V: 5, Lambda: []float64{-0.5, 1.5}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestFitRejectsBadTokens(t *testing.T) {
	m := mustModel(t, Config{Order: 1, V: 3})
	if err := m.Fit([][]int{{0, 5}}); err == nil {
		t.Fatal("out-of-range token accepted")
	}
	if err := m.Fit([][]int{{-1}}); err == nil {
		t.Fatal("negative token accepted")
	}
}

func TestUnigramProbabilities(t *testing.T) {
	m := mustModel(t, Config{Order: 1, V: 2, AddK: 1e-9})
	if err := m.Fit([][]int{{0, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if got := m.Prob(nil, 0); math.Abs(got-0.75) > 1e-6 {
		t.Fatalf("P(0) = %v, want 0.75", got)
	}
	if got := m.Prob(nil, 1); math.Abs(got-0.25) > 1e-6 {
		t.Fatalf("P(1) = %v, want 0.25", got)
	}
}

func TestDistSumsToOneProperty(t *testing.T) {
	g := rng.New(3)
	for _, order := range []int{1, 2, 3} {
		m := mustModel(t, Config{Order: order, V: 8})
		seqs := make([][]int, 50)
		for i := range seqs {
			n := 1 + g.Intn(8)
			seq := make([]int, n)
			for j := range seq {
				seq[j] = g.Intn(8)
			}
			seqs[i] = seq
		}
		if err := m.Fit(seqs); err != nil {
			t.Fatal(err)
		}
		f := func(seed int64) bool {
			r := rng.New(seed)
			hl := r.Intn(4)
			hist := make([]int, hl)
			for i := range hist {
				hist[i] = r.Intn(8)
			}
			d := m.Dist(hist)
			var s float64
			for _, p := range d {
				if p <= 0 || p > 1 {
					return false
				}
				s += p
			}
			return math.Abs(s-1) < 1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
	}
}

func TestBigramCapturesOrder(t *testing.T) {
	// Train on strictly alternating sequences 0,1,0,1... The bigram model
	// must assign P(1|0) >> P(0|0); the unigram model cannot.
	seqs := make([][]int, 100)
	for i := range seqs {
		seqs[i] = []int{0, 1, 0, 1, 0, 1}
	}
	uni := mustModel(t, Config{Order: 1, V: 2})
	bi := mustModel(t, Config{Order: 2, V: 2})
	if err := uni.Fit(seqs); err != nil {
		t.Fatal(err)
	}
	if err := bi.Fit(seqs); err != nil {
		t.Fatal(err)
	}
	if bi.Prob([]int{0}, 1) <= bi.Prob([]int{0}, 0) {
		t.Fatal("bigram did not learn alternation")
	}
	puni := uni.Perplexity(seqs)
	pbi := bi.Perplexity(seqs)
	if pbi >= puni {
		t.Fatalf("bigram perplexity %v should beat unigram %v on sequential data", pbi, puni)
	}
}

func TestTrigramBeatsBigramOnSecondOrderData(t *testing.T) {
	// Pattern where the next token depends on the two previous:
	// 0,0 -> 1; 0,1 -> 2; 1,2 -> 0; 2,0 -> 0 (cycle 0 0 1 2 0 0 1 2 ...)
	base := []int{0, 0, 1, 2}
	seqs := make([][]int, 200)
	for i := range seqs {
		var s []int
		for r := 0; r < 4; r++ {
			s = append(s, base...)
		}
		seqs[i] = s
	}
	bi := mustModel(t, Config{Order: 2, V: 3})
	tri := mustModel(t, Config{Order: 3, V: 3})
	if err := bi.Fit(seqs); err != nil {
		t.Fatal(err)
	}
	if err := tri.Fit(seqs); err != nil {
		t.Fatal(err)
	}
	if ptri, pbi := tri.Perplexity(seqs), bi.Perplexity(seqs); ptri >= pbi {
		t.Fatalf("trigram perplexity %v should beat bigram %v on 2nd-order data", ptri, pbi)
	}
}

func TestPerplexityUniformBound(t *testing.T) {
	// On data the model has never seen (untrained), perplexity ~= V.
	m := mustModel(t, Config{Order: 1, V: 38})
	seqs := [][]int{{0, 1, 2, 3, 4, 5}}
	p := m.Perplexity(seqs)
	if math.Abs(p-38) > 1e-6 {
		t.Fatalf("untrained perplexity = %v, want 38 (uniform)", p)
	}
	if !math.IsInf(mustModel(t, Config{Order: 1, V: 3}).Perplexity(nil), 1) {
		t.Fatal("empty-corpus perplexity should be +Inf")
	}
}

func TestPerplexityImprovesWithSkew(t *testing.T) {
	m := mustModel(t, Config{Order: 1, V: 10})
	skewed := make([][]int, 100)
	for i := range skewed {
		skewed[i] = []int{0, 0, 0, 0, 1}
	}
	if err := m.Fit(skewed); err != nil {
		t.Fatal(err)
	}
	if p := m.Perplexity(skewed); p >= 10 || p < 1 {
		t.Fatalf("skewed perplexity = %v, want in [1, 10)", p)
	}
}

func TestIncrementalFitEquivalence(t *testing.T) {
	seqA := [][]int{{0, 1, 2}, {2, 1}}
	seqB := [][]int{{1, 1, 0}}
	m1 := mustModel(t, Config{Order: 2, V: 3})
	if err := m1.Fit(append(append([][]int{}, seqA...), seqB...)); err != nil {
		t.Fatal(err)
	}
	m2 := mustModel(t, Config{Order: 2, V: 3})
	if err := m2.Fit(seqA); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fit(seqB); err != nil {
		t.Fatal(err)
	}
	for tok := 0; tok < 3; tok++ {
		if math.Abs(m1.Prob([]int{1}, tok)-m2.Prob([]int{1}, tok)) > 1e-12 {
			t.Fatal("incremental Fit differs from batch Fit")
		}
	}
}

func TestSequentialityDetectsOrder(t *testing.T) {
	// Strongly ordered data: nearly every bigram over-represented vs i.i.d.
	g := rng.New(5)
	ordered := make([][]int, 400)
	for i := range ordered {
		start := g.Intn(3)
		seq := []int{start, start + 1, start + 2, start + 3, start + 4}
		ordered[i] = seq
	}
	rep := TestSequentiality(ordered, 8, 0.05)
	if rep.Bigrams == 0 || rep.BigramFraction < 0.8 {
		t.Fatalf("ordered data: significant bigram fraction = %v (n=%d)", rep.BigramFraction, rep.Bigrams)
	}

	// i.i.d. data: the significant fraction should be near the false-positive
	// rate, far below the ordered case.
	iid := make([][]int, 400)
	for i := range iid {
		seq := make([]int, 8)
		for j := range seq {
			seq[j] = g.Intn(8)
		}
		iid[i] = seq
	}
	repIID := TestSequentiality(iid, 8, 0.05)
	if repIID.BigramFraction > 0.35 {
		t.Fatalf("i.i.d. data: significant bigram fraction = %v, too high", repIID.BigramFraction)
	}
	if repIID.BigramFraction >= rep.BigramFraction {
		t.Fatal("sequentiality test cannot distinguish ordered from i.i.d. data")
	}
}

func TestSequentialityEmpty(t *testing.T) {
	rep := TestSequentiality(nil, 5, 0.05)
	if rep.Bigrams != 0 || rep.BigramFraction != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
}
