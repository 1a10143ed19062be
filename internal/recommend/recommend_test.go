package recommend

import (
	"math"
	"testing"

	"repro/internal/chh"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/lda"
	"repro/internal/ngram"
	"repro/internal/rng"
	"repro/internal/rnn"
	"repro/internal/stats"
)

// oracleCorpus builds a deterministic corpus where category t is always
// acquired in year 2000+t, so a perfect recommender exists.
func oracleCorpus(n int) *corpus.Corpus {
	cat := corpus.DefaultCatalog()
	companies := make([]corpus.Company, n)
	for i := range companies {
		var acqs []corpus.Acquisition
		for t := 0; t < 16; t++ {
			acqs = append(acqs, corpus.Acquisition{
				Category: t,
				First:    corpus.MonthOf(2000+t, 1+i%3), // slight phase jitter
			})
		}
		companies[i] = corpus.Company{ID: i, Acquisitions: acqs}
	}
	return corpus.New(cat, companies)
}

// oracleRecommender predicts the category following the last owned one with
// probability 1.
type oracleRecommender struct{ v int }

func (o *oracleRecommender) Name() string { return "oracle" }
func (o *oracleRecommender) Scores(history []int) []float64 {
	out := make([]float64, o.v)
	if len(history) == 0 {
		out[0] = 1
		return out
	}
	next := history[len(history)-1] + 1
	if next < o.v {
		out[next] = 1
	}
	return out
}

func TestPaperWindows(t *testing.T) {
	w := PaperWindows()
	if w.Count != 13 || w.Length != 12 || w.Slide != 2 {
		t.Fatalf("spec %+v", w)
	}
	last := w.Start + corpus.Month((w.Count-1)*w.Slide)
	if last != corpus.MonthOf(2015, 1) {
		t.Fatalf("last window starts %v, want 2015-01", last)
	}
	if last+corpus.Month(w.Length) != corpus.MonthOf(2016, 1) {
		t.Fatal("last window must end at 2016-01")
	}
}

func TestEvaluateSweepValidation(t *testing.T) {
	c := oracleCorpus(5)
	train := func(tc *corpus.Corpus, _ corpus.Month) (Recommender, error) {
		return &oracleRecommender{v: tc.M()}, nil
	}
	if _, err := EvaluateSweep(c, WindowSpec{Length: 0, Slide: 1, Count: 1}, []float64{0.1}, train); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := EvaluateSweep(c, PaperWindows(), nil, train); err == nil {
		t.Fatal("empty phi grid accepted")
	}
}

func TestOracleGetsPerfectAccuracy(t *testing.T) {
	c := oracleCorpus(30)
	// Window aligned with yearly acquisitions: each 12-month window contains
	// exactly one new category per company (categories 13, 14, 15 in the
	// 2013-2015 era).
	spec := PaperWindows()
	res, err := EvaluateSweep(c, spec, []float64{0.5}, func(tc *corpus.Corpus, _ corpus.Month) (Recommender, error) {
		return &oracleRecommender{v: tc.M()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "oracle" {
		t.Fatalf("model name %q", res.Model)
	}
	// The oracle recommends exactly the next category; every window's truth
	// is that category, so precision and recall must both be 1.
	if math.Abs(res.Recall[0].Mean-1) > 1e-9 {
		t.Fatalf("oracle recall = %v, want 1", res.Recall[0].Mean)
	}
	if math.Abs(res.Precision[0].Mean-1) > 1e-9 {
		t.Fatalf("oracle precision = %v, want 1", res.Precision[0].Mean)
	}
	if math.Abs(res.F1[0].Mean-1) > 1e-9 {
		t.Fatalf("oracle F1 = %v, want 1", res.F1[0].Mean)
	}
}

func TestUniformBaselineBehaviour(t *testing.T) {
	c := oracleCorpus(20)
	spec := PaperWindows()
	phis := []float64{0.01, 0.5}
	res, err := EvaluateSweep(c, spec, phis, func(tc *corpus.Corpus, _ corpus.Month) (Recommender, error) {
		return Uniform(tc.M()), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// phi below 1/38: retrieves every unowned product -> recall 1
	if math.Abs(res.Recall[0].Mean-1) > 1e-9 {
		t.Fatalf("low-phi uniform recall = %v, want 1 (paper: random retrieves all)", res.Recall[0].Mean)
	}
	// phi above 1/38: retrieves nothing -> recall 0, precision NaN
	if res.Recall[1].Mean != 0 {
		t.Fatalf("high-phi uniform recall = %v, want 0", res.Recall[1].Mean)
	}
	if !math.IsNaN(res.Precision[1].Mean) {
		t.Fatalf("high-phi uniform precision = %v, want NaN (undefined)", res.Precision[1].Mean)
	}
	if res.Retrieved[1].Mean != 0 {
		t.Fatalf("high-phi retrieved = %v, want 0", res.Retrieved[1].Mean)
	}
}

func TestRetrievedCountsMonotoneInPhi(t *testing.T) {
	g, err := datagen.NewGenerator(datagen.DefaultConfig(300, 5))
	if err != nil {
		t.Fatal(err)
	}
	c := g.Generate()
	spec := WindowSpec{Start: corpus.MonthOf(2013, 1), Length: 12, Slide: 4, Count: 4}
	phis := DefaultPhiGrid(0.4)
	rg := rng.New(1)
	res, err := EvaluateSweep(c, spec, phis, func(tc *corpus.Corpus, _ corpus.Month) (Recommender, error) {
		m, err := lda.Train(lda.Config{Topics: 3, V: tc.M(), BurnIn: 10, Iterations: 30, InferIterations: 10}, tc.Sets(), nil, rg)
		if err != nil {
			return nil, err
		}
		return LDA(m, rg), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(phis); i++ {
		if res.Retrieved[i].Mean > res.Retrieved[i-1].Mean+1e-9 {
			t.Fatalf("retrieved counts not non-increasing in phi at %v", phis[i])
		}
		if res.CorrectlyRetrieved[i].Mean > res.CorrectlyRetrieved[i-1].Mean+1e-9 {
			t.Fatalf("correct counts not non-increasing in phi at %v", phis[i])
		}
	}
	// relevant is threshold-independent and positive on this corpus
	if res.Relevant.Mean <= 0 {
		t.Fatalf("relevant mean = %v", res.Relevant.Mean)
	}
	// correct <= retrieved and correct <= relevant
	for i := range phis {
		if res.CorrectlyRetrieved[i].Mean > res.Retrieved[i].Mean+1e-9 {
			t.Fatal("correct exceeds retrieved")
		}
		if res.CorrectlyRetrieved[i].Mean > res.Relevant.Mean+1e-9 {
			t.Fatal("correct exceeds relevant")
		}
	}
}

func TestAdaptersProduceValidScores(t *testing.T) {
	g, err := datagen.NewGenerator(datagen.DefaultConfig(200, 7))
	if err != nil {
		t.Fatal(err)
	}
	c := g.Generate()
	seqs := c.Sequences()
	rg := rng.New(3)

	ldaM, err := lda.Train(lda.Config{Topics: 3, V: c.M(), BurnIn: 10, Iterations: 30, InferIterations: 10}, c.Sets(), nil, rg)
	if err != nil {
		t.Fatal(err)
	}
	lstmM, _, err := rnn.Train(rnn.Config{V: c.M(), Layers: 1, Hidden: 8, Epochs: 1}, seqs, nil, rg)
	if err != nil {
		t.Fatal(err)
	}
	ngramM, err := ngram.New(ngram.Config{Order: 2, V: c.M()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ngramM.Fit(seqs); err != nil {
		t.Fatal(err)
	}
	chhM, err := chh.NewExact(c.M(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := chhM.Fit(seqs); err != nil {
		t.Fatal(err)
	}

	recs := []Recommender{LDA(ldaM, rg), LSTM(lstmM), Ngram(ngramM), CHH(chhM), Uniform(c.M())}
	history := seqs[0][:3]
	for _, r := range recs {
		scores := r.Scores(history)
		if len(scores) != c.M() {
			t.Fatalf("%s returned %d scores", r.Name(), len(scores))
		}
		for _, s := range scores {
			if s < 0 || s > 1 || math.IsNaN(s) {
				t.Fatalf("%s produced invalid score %v", r.Name(), s)
			}
		}
	}
	if recs[0].Name() != "LDA3" {
		t.Fatalf("LDA adapter name = %q", recs[0].Name())
	}
	if recs[2].Name() != "bigram" {
		t.Fatalf("ngram adapter name = %q", recs[2].Name())
	}
}

func TestDefaultPhiGrid(t *testing.T) {
	grid := DefaultPhiGrid(0.4)
	if len(grid) != 9 || grid[0] != 0 || grid[8] != 0.4 {
		t.Fatalf("grid = %v", grid)
	}
}

func TestCIWidthShrinksWithConsistency(t *testing.T) {
	// sanity: identical windows => zero-width CI
	c := oracleCorpus(10)
	spec := WindowSpec{Start: corpus.MonthOf(2013, 1), Length: 12, Slide: 12, Count: 2}
	res, err := EvaluateSweep(c, spec, []float64{0.5}, func(tc *corpus.Corpus, _ corpus.Month) (Recommender, error) {
		return &oracleRecommender{v: tc.M()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ci := res.Recall[0]
	if ci.Hi-ci.Lo > 1e-9 {
		t.Fatalf("deterministic recall CI has width %v", ci.Hi-ci.Lo)
	}
	var _ stats.CI = ci
}
