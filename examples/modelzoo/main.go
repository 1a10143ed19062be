// Modelzoo: trains all four of the paper's model families on one corpus and
// compares their held-out perplexity (a miniature Table 1) and their
// recommendations for the same company — showing why the paper deploys LDA:
// best fit, interpretable features, and sensible recommendations, while
// BPMF degenerates on dense binary data.
//
//	go run ./examples/modelzoo
package main

import (
	"fmt"
	"log"
	"sort"

	hiddenlayer "repro"
	"repro/internal/bpmf"
	"repro/internal/chh"
	"repro/internal/corpus"
	"repro/internal/lda"
	"repro/internal/ngram"
	"repro/internal/rng"
	"repro/internal/rnn"
)

func main() {
	c, err := hiddenlayer.GenerateCorpus(1000, 5)
	if err != nil {
		log.Fatal(err)
	}
	g := rng.New(1)
	split, err := corpus.PaperSplit(c, g)
	if err != nil {
		log.Fatal(err)
	}
	trainSeqs := split.Train.Sequences()
	testSeqs := split.Test.Sequences()

	type row struct {
		name  string
		perpl float64
	}
	var table []row

	// LDA (binary input, 3 topics).
	ldaM, err := lda.Train(lda.Config{Topics: 3, V: c.M()}, split.Train.Sets(), nil, g)
	if err != nil {
		log.Fatal(err)
	}
	table = append(table, row{"LDA3", ldaM.Perplexity(split.Test.Sets(), g)})

	// LSTM (1 layer x 40 nodes keeps the example fast; the full grid lives
	// in cmd/ibeval -exp fig1).
	lstmM, _, err := rnn.Train(rnn.Config{V: c.M(), Layers: 1, Hidden: 40, Dropout: 0.2, Epochs: 6},
		trainSeqs, split.Valid.Sequences(), g)
	if err != nil {
		log.Fatal(err)
	}
	table = append(table, row{"LSTM 1x40", lstmM.Perplexity(testSeqs)})

	// Bigram and unigram language models.
	for _, order := range []int{2, 1} {
		m, err := ngram.New(ngram.Config{Order: order, V: c.M()})
		if err != nil {
			log.Fatal(err)
		}
		if err := m.Fit(trainSeqs); err != nil {
			log.Fatal(err)
		}
		name := map[int]string{1: "Unigram BOW", 2: "Bigram"}[order]
		table = append(table, row{name, m.Perplexity(testSeqs)})
	}

	sort.Slice(table, func(i, j int) bool { return table[i].perpl < table[j].perpl })
	fmt.Println("held-out perplexity (lower is better; paper's Table 1 ordering: LDA < LSTM < n-gram < unigram):")
	for i, r := range table {
		fmt.Printf("  %d. %-12s %.2f\n", i+1, r.name, r.perpl)
	}

	// Recommendations for one company under each model.
	target := &split.Test.Companies[0]
	history := target.Sequence()
	cut := len(history) / 2
	ownedHalf := history[:cut]
	fmt.Printf("\ncompany %s owns %v...; each model's top next-product pick:\n",
		target.Name, names(c, ownedHalf))

	pick := func(scores []float64) string {
		owned := map[int]bool{}
		for _, o := range ownedHalf {
			owned[o] = true
		}
		best, bestP := -1, -1.0
		for cat, p := range scores {
			if !owned[cat] && p > bestP {
				best, bestP = cat, p
			}
		}
		return fmt.Sprintf("%s (P=%.3f)", c.Catalog.Name(best), bestP)
	}
	theta := ldaM.InferTheta(ownedHalf, g)
	fmt.Printf("  LDA3:   %s\n", pick(ldaM.WordDist(theta)))
	fmt.Printf("  LSTM:   %s\n", pick(lstmM.NextDist(ownedHalf)))
	chhM, err := chh.NewExact(c.M(), 2)
	if err != nil {
		log.Fatal(err)
	}
	if err := chhM.Fit(trainSeqs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  CHH:    %s\n", pick(chhM.Dist(ownedHalf)))

	// The rules CHH recommends from: contexts of one or two products whose
	// next product follows with probability at least 0.2.
	hh := chhM.HeavyHitters(0.2, 50)
	fmt.Printf("\nCHH depth 2: %d heavy hitters at phi=0.2, support>=50; the strongest:\n", len(hh))
	for _, h := range hh[:min(len(hh), 5)] {
		fmt.Printf("  %v -> %s (p=%.2f, support %.0f)\n",
			names(c, h.Context), c.Catalog.Name(h.Item), h.Prob, h.Support)
	}

	// BPMF on the same data: scores collapse near 1 (the paper's Figure 5).
	var ratings []bpmf.Rating
	for i := range split.Train.Companies {
		for _, a := range split.Train.Companies[i].Acquisitions {
			ratings = append(ratings, bpmf.Rating{User: i, Item: a.Category, Value: 1})
		}
	}
	bpmfM, err := bpmf.Train(bpmf.Config{Rank: 5, Alpha: 25, Burn: 10, Samples: 15},
		split.Train.N(), c.M(), ratings, g)
	if err != nil {
		log.Fatal(err)
	}
	scores := bpmfM.ScoreDistribution()
	var above int
	for _, s := range scores {
		if s > 0.9 {
			above++
		}
	}
	fmt.Printf("\nBPMF sanity check: train RMSE %.3f, yet %.0f%% of its %d predictive scores exceed 0.9 —\n",
		bpmfM.RMSE(ratings), 100*float64(above)/float64(len(scores)), len(scores))
	fmt.Println("it recommends nearly everything to everyone on this dense binary matrix,")
	fmt.Println("reproducing the degenerate behaviour the paper reports in Figures 5-6.")
}

func names(c *hiddenlayer.Corpus, cats []int) []string {
	out := make([]string, len(cats))
	for i, cat := range cats {
		out[i] = c.Catalog.Name(cat)
	}
	return out
}
