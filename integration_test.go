package hiddenlayer

// Integration tests exercising full pipelines across modules: generation ->
// serialization -> training -> persistence -> recommendation, mirroring how
// the cmd/ tools compose the packages.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/chh"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/lda"
	"repro/internal/ngram"
	"repro/internal/recommend"
	"repro/internal/rng"
	"repro/internal/rnn"
)

// TestPipelineSitesToRecommendations drives the entire data path: raw site
// records -> D-U-N-S aggregation -> JSONL round trip -> LDA training ->
// model persistence -> similarity index -> recommendations.
func TestPipelineSitesToRecommendations(t *testing.T) {
	gen, err := datagen.NewGenerator(datagen.DefaultConfig(300, 77))
	if err != nil {
		t.Fatal(err)
	}
	sites := gen.GenerateSites()
	companies := corpus.AggregateDomestic(sites)
	c := corpus.New(gen.Catalog, companies)
	if err := c.Validate(); err != nil {
		t.Fatalf("aggregated corpus invalid: %v", err)
	}

	// JSONL round trip through a real file.
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.jsonl")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != c.N() || loaded.TotalAcquisitions() != c.TotalAcquisitions() {
		t.Fatal("JSONL round trip lost data")
	}

	// Train, persist, reload, and verify identical behaviour.
	sel, err := SelectLDA(loaded, []int{3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "lda.gob")
	f, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sel.Model.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := lda.Load(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}

	sys1, err := NewSystem(loaded, sel.Model, 9)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := NewSystem(loaded, reloaded, 9)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := sys1.SimilarCompanies(0, 5, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sys2.SimilarCompanies(0, 5, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("reloaded model behaves differently")
		}
	}
	recs, err := sys1.RecommendProducts(0, 10, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Strength <= 0 || r.Strength > 1 {
			t.Fatalf("invalid recommendation %+v", r)
		}
	}
}

// TestAllModelFamiliesOnOneCorpus trains every model family on the same
// corpus and checks cross-model invariants: all beat (or match) the uniform
// bound, and every recommender produces valid probability vectors for the
// same histories.
func TestAllModelFamiliesOnOneCorpus(t *testing.T) {
	c, err := GenerateCorpus(400, 21)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(2)
	split, err := corpus.PaperSplit(c, g)
	if err != nil {
		t.Fatal(err)
	}
	trainSeqs := split.Train.Sequences()
	testSeqs := split.Test.Sequences()

	ldaM, err := lda.Train(lda.Config{Topics: 3, V: 38, BurnIn: 15, Iterations: 40, InferIterations: 12},
		split.Train.Sets(), nil, g)
	if err != nil {
		t.Fatal(err)
	}
	lstmM, _, err := rnn.Train(rnn.Config{V: 38, Layers: 1, Hidden: 16, Dropout: 0.5, Epochs: 4}, trainSeqs, nil, g)
	if err != nil {
		t.Fatal(err)
	}
	biM, err := ngram.New(ngram.Config{Order: 2, V: 38})
	if err != nil {
		t.Fatal(err)
	}
	if err := biM.Fit(trainSeqs); err != nil {
		t.Fatal(err)
	}
	chhM, err := chh.NewExact(38, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := chhM.Fit(trainSeqs); err != nil {
		t.Fatal(err)
	}

	const uniform = 38.0
	if p := ldaM.Perplexity(split.Test.Sets(), g); p >= uniform {
		t.Fatalf("LDA perplexity %v no better than uniform", p)
	}
	if p := lstmM.Perplexity(testSeqs); p >= uniform {
		t.Fatalf("LSTM perplexity %v no better than uniform", p)
	}
	if p := biM.Perplexity(testSeqs); p >= uniform {
		t.Fatalf("bigram perplexity %v no better than uniform", p)
	}

	recs := []recommend.Recommender{
		recommend.LDA(ldaM, g), recommend.LSTM(lstmM),
		recommend.Ngram(biM), recommend.CHH(chhM), recommend.Uniform(38),
	}
	histories := [][]int{nil, {0}, {5, 9, 23}, trainSeqs[0]}
	for _, r := range recs {
		for _, h := range histories {
			scores := r.Scores(h)
			if len(scores) != 38 {
				t.Fatalf("%s: %d scores", r.Name(), len(scores))
			}
			for _, s := range scores {
				if s < 0 || s > 1 {
					t.Fatalf("%s: score %v out of [0,1]", r.Name(), s)
				}
			}
		}
	}
}

// TestTruncationProperty checks by property that TruncateBefore always
// yields a subset of each company's acquisitions, all strictly earlier than
// the cut, and never mutates the source corpus.
func TestTruncationProperty(t *testing.T) {
	c, err := GenerateCorpus(120, 31)
	if err != nil {
		t.Fatal(err)
	}
	before := c.TotalAcquisitions()
	f := func(rawMonth int16) bool {
		m := corpus.Month(int(rawMonth)%400 + 0)
		tr := c.TruncateBefore(m)
		if tr.N() != c.N() {
			return false
		}
		for i := range tr.Companies {
			owned := make(map[int]bool)
			for _, a := range c.Companies[i].Acquisitions {
				owned[a.Category] = true
			}
			for _, a := range tr.Companies[i].Acquisitions {
				if a.First >= m || !owned[a.Category] {
					return false
				}
			}
		}
		return c.TotalAcquisitions() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAggregationIdempotent: aggregating already-aggregated companies
// (one site each) must be the identity up to ID reassignment.
func TestAggregationIdempotent(t *testing.T) {
	c, err := GenerateCorpus(150, 41)
	if err != nil {
		t.Fatal(err)
	}
	var sites []corpus.SiteRecord
	for i := range c.Companies {
		co := &c.Companies[i]
		sites = append(sites, corpus.SiteRecord{
			SiteDUNS: co.DUNS, DomesticDUNS: co.DUNS, CompanyName: co.Name,
			Country: co.Country, SIC2: co.SIC2, Employees: co.Employees,
			RevenueM: co.RevenueM, Acquisitions: co.Acquisitions,
		})
	}
	agg := corpus.AggregateDomestic(sites)
	if len(agg) != c.N() {
		t.Fatalf("aggregation changed company count: %d vs %d", len(agg), c.N())
	}
	byDUNS := make(map[string]*corpus.Company)
	for i := range c.Companies {
		byDUNS[c.Companies[i].DUNS] = &c.Companies[i]
	}
	for i := range agg {
		want := byDUNS[agg[i].DUNS]
		if want == nil || len(agg[i].Acquisitions) != len(want.Acquisitions) {
			t.Fatalf("company %q changed under idempotent aggregation", agg[i].DUNS)
		}
		for j := range want.Acquisitions {
			if agg[i].Acquisitions[j] != want.Acquisitions[j] {
				t.Fatal("acquisition changed under idempotent aggregation")
			}
		}
	}
}

// TestModelPersistenceAcrossFamilies saves and reloads one model of every
// family through real buffers and checks behavioural equality.
func TestModelPersistenceAcrossFamilies(t *testing.T) {
	c, err := GenerateCorpus(200, 51)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(3)
	seqs := c.Sequences()

	// ngram
	nm, err := ngram.New(ngram.Config{Order: 3, V: 38})
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Fit(seqs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	nm2, err := ngram.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Perplexity(seqs) != nm2.Perplexity(seqs) {
		t.Fatal("ngram round trip changed behaviour")
	}

	// chh
	cm, err := chh.NewExact(38, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Fit(seqs); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := cm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cm2, err := chh.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.HeavyHitters(0.1, 10)) != len(cm2.HeavyHitters(0.1, 10)) {
		t.Fatal("chh round trip changed behaviour")
	}

	// lstm
	lm, _, err := rnn.Train(rnn.Config{V: 38, Layers: 1, Hidden: 8, Epochs: 1}, seqs[:100], nil, g)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := lm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	lm2, err := rnn.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Perplexity(seqs[:20]) != lm2.Perplexity(seqs[:20]) {
		t.Fatal("lstm round trip changed behaviour")
	}
}
