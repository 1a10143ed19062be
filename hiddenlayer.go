// Package hiddenlayer is the public facade of the reproduction of
// "Hidden Layer Models for Company Representations and Product
// Recommendations" (Mirylenka, Scotton, Miksovic, Dillon; EDBT 2019).
//
// It ties the substrates together into the workflow the paper deploys:
//
//  1. obtain an install-base corpus (synthetic generator or JSONL),
//  2. select the best generative model by held-out perplexity (the paper
//     finds LDA with 2-4 topics),
//  3. derive company representations B and product embeddings,
//  4. serve top-k similar-company search with business filters, white-space
//     prospecting, and gap-based product recommendations.
//
// The experiment drivers that regenerate every table and figure of the
// paper live in internal/eval and are exposed through cmd/ibeval and the
// root-level benchmarks.
package hiddenlayer

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/lda"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
)

// Re-exported domain types, so downstream code only imports this package.
type (
	// Corpus is a catalog plus aggregated companies.
	Corpus = corpus.Corpus
	// Company is one aggregated company with its timestamped install base.
	Company = corpus.Company
	// Catalog is the ordered set of product categories.
	Catalog = corpus.Catalog
	// Filter restricts similarity searches (industry, country, size).
	Filter = core.Filter
	// Match is one similarity-search hit.
	Match = core.Match
	// ProductRecommendation is one gap-based recommendation.
	ProductRecommendation = core.ProductRecommendation
	// WhitespaceProspect is one white-space prospect.
	WhitespaceProspect = core.WhitespaceProspect
	// LDAModel is a trained Latent Dirichlet Allocation model.
	LDAModel = lda.Model
	// MetricsSnapshot is a point-in-time copy of the process-wide
	// observability registry: every counter, gauge and histogram (with
	// quantile estimates) the instrumented training loops and query paths
	// have reported.
	MetricsSnapshot = obs.Snapshot
	// TrainingProgress is the per-iteration training callback carried by
	// the model Configs (iteration number, loss, tokens per second).
	TrainingProgress = obs.Progress
)

// SystemStats snapshots the process-wide metrics registry — training
// iteration counters, top-k latency histograms, filter selectivity and
// recommendation fan-out — so embedding applications can export or assert on
// them without running the -debug-addr HTTP listener.
func SystemStats() MetricsSnapshot { return obs.Default().Snapshot() }

// GenerateCorpus synthesizes an install-base corpus with the statistical
// structure of the paper's (proprietary) HG Data corpus: latent IT-profile
// topics, popularity skew, industry structure and adoption-stage ordered
// timestamps. Same (n, seed) always yields the same corpus.
func GenerateCorpus(n int, seed int64) (*Corpus, error) {
	gen, err := datagen.NewGenerator(datagen.DefaultConfig(n, seed))
	if err != nil {
		return nil, err
	}
	return gen.Generate(), nil
}

// LoadCorpus reads a JSONL corpus written by (*Corpus).SaveFile.
func LoadCorpus(path string) (*Corpus, error) { return corpus.LoadFile(path) }

// TopicPerplexity records the model-selection curve.
type TopicPerplexity struct {
	Topics     int
	Perplexity float64
}

// ModelSelection is the outcome of SelectLDA: the winning model and the
// full perplexity curve used to pick it.
type ModelSelection struct {
	Model *LDAModel
	Curve []TopicPerplexity
}

// SelectLDA trains LDA for every topic count in grid on a 70/10/20 split of
// the corpus and returns the model with the lowest validation perplexity,
// retrained parameters intact (the paper selects 2-4 topics this way).
// A nil or empty grid selects the paper's sweep {2,3,4,6,8,10,12,14,16}.
func SelectLDA(c *Corpus, grid []int, seed int64) (*ModelSelection, error) {
	return SelectLDAContext(context.Background(), c, grid, seed, nil)
}

// SelectLDAContext is SelectLDA with a cancellable context threaded into
// every candidate's Gibbs sampler and a per-sweep training progress hook
// installed in every candidate's Config. Cancellation stops the sweep loop
// at the next boundary and surfaces ctx.Err(), so a signal-trapping CLI
// (ibtrain -topics 2,3,4) can abandon a long model-selection run cleanly; a
// nil progress hook, like a non-nil one, leaves the models bit-identical.
func SelectLDAContext(ctx context.Context, c *Corpus, grid []int, seed int64, progress TrainingProgress) (*ModelSelection, error) {
	if len(grid) == 0 {
		grid = []int{2, 3, 4, 6, 8, 10, 12, 14, 16}
	}
	g := rng.New(seed)
	split, err := corpus.PaperSplit(c, g)
	if err != nil {
		return nil, err
	}
	trainDocs := split.Train.Sets()
	validDocs := split.Valid.Sets()
	// Pre-split one (train, perplexity) RNG pair per topic count, in the
	// sequential grid order, so every candidate sees the exact stream it saw
	// when the sweep was single-threaded — the fan-out below is then
	// bit-identical at any worker count.
	type cellRNG struct{ train, perp *rng.RNG }
	streams := make([]cellRNG, len(grid))
	for i, k := range grid {
		if k < 1 {
			return nil, fmt.Errorf("hiddenlayer: invalid topic count %d", k)
		}
		streams[i] = cellRNG{train: g.Split(), perp: g.Split()}
	}
	type cellOut struct {
		model *lda.Model
		perp  float64
	}
	cells, err := par.Map(ctx, len(grid), func(i int) (cellOut, error) {
		m, err := lda.TrainContext(ctx, lda.Config{Topics: grid[i], V: c.M(), Progress: progress}, trainDocs, nil, streams[i].train)
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{model: m, perp: m.Perplexity(validDocs, streams[i].perp)}, nil
	})
	if err != nil {
		return nil, err
	}
	sel := &ModelSelection{}
	best := -1.0
	for i, cell := range cells {
		sel.Curve = append(sel.Curve, TopicPerplexity{Topics: grid[i], Perplexity: cell.perp})
		if sel.Model == nil || cell.perp < best {
			sel.Model, best = cell.model, cell.perp
		}
	}
	return sel, nil
}

// System is the assembled sales application: corpus, model, representations
// and similarity index.
type System struct {
	Corpus *Corpus
	Model  *LDAModel
	Index  *core.Index

	seed int64
}

// NewSystem infers every company's representation under the model and
// builds the similarity index (cosine metric, as for topic mixtures). The
// representations are those ibserve -seed serves for the same files. Every
// company's ID must equal its row in c.Companies.
func NewSystem(c *Corpus, m *LDAModel, seed int64) (*System, error) {
	if c.M() != m.V {
		return nil, fmt.Errorf("hiddenlayer: corpus has %d categories, model %d", c.M(), m.V)
	}
	reps := m.Representations(c.Sets(), rng.New(seed))
	ix, err := core.NewIndex(c, reps, core.Cosine)
	if err != nil {
		return nil, err
	}
	return &System{Corpus: c, Model: m, Index: ix, seed: seed}, nil
}

// SimilarCompanies returns the top-k companies most similar to company id,
// after filtering.
func (s *System) SimilarCompanies(id, k int, f Filter) ([]Match, error) {
	return s.Index.TopK(id, k, f)
}

// RecommendProducts returns gap-based product recommendations for company
// id derived from its peers most similar companies.
func (s *System) RecommendProducts(id, peers int, f Filter) ([]ProductRecommendation, error) {
	return s.Index.RecommendFromSimilar(id, peers, f)
}

// Whitespace ranks non-client companies by similarity to the nearest
// client — the paper's new-customer identification scenario.
func (s *System) Whitespace(clientIDs []int, k int, f Filter) ([]WhitespaceProspect, error) {
	return s.Index.Whitespace(clientIDs, k, f)
}

// Representation returns company id's learned feature vector B_i.
func (s *System) Representation(id int) ([]float64, error) {
	if id < 0 || id >= s.Corpus.N() {
		return nil, fmt.Errorf("hiddenlayer: company id %d outside [0,%d)", id, s.Corpus.N())
	}
	out := make([]float64, s.Index.Reps.Cols)
	copy(out, s.Index.Reps.Row(id))
	return out, nil
}

// ScoreProducts returns the model's next-product distribution for an
// arbitrary owned-category set (real-time scoring for companies outside
// the corpus). Each call folds the set in from a fresh stream of the
// System's seed, as ibserve's /v1/infer does, so equal sets score equally
// and concurrent calls are safe.
func (s *System) ScoreProducts(owned []int) []float64 {
	theta := s.Model.InferTheta(owned, rng.New(s.seed))
	return s.Model.WordDist(theta)
}
