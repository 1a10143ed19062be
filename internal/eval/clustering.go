package eval

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/lda"
	"repro/internal/mat"
	"repro/internal/tsne"
)

// SilhouetteCurve is one line of the paper's Figure 7: silhouette score
// versus number of clusters for one company representation.
type SilhouetteCurve struct {
	Feature string
	Scores  []float64 // aligned with Figure7Result.ClusterCounts
}

// Figure7Result reproduces Figure 7: silhouette curves for raw binary,
// raw TF-IDF, LDA (binary input, 2/3/4/7 topics) and LDA (TF-IDF input,
// 2/4 topics) company representations.
type Figure7Result struct {
	ClusterCounts []int
	Curves        []SilhouetteCurve
}

// RunFigure7 clusters each representation with k-means for the scale's
// cluster-count grid and scores each clustering by (sampled) silhouette.
// Representations are computed on a deterministic subsample of companies
// to bound the quadratic silhouette cost.
func RunFigure7(ctx *Context) (*Figure7Result, error) {
	sub := subsampleCompanies(ctx, 3*ctx.Scale.SilhouetteSample)
	// LDA tolerates empty documents, so the doc and weight lists stay
	// parallel without filtering.
	trainDocs := ctx.Split.Train.Sets()
	weights := ctx.Split.Train.TFIDFWeights()

	type featureSpec struct {
		name  string
		build func() (*mat.Matrix, error)
	}
	ldaFeature := func(k int, tfidf bool) func() (*mat.Matrix, error) {
		return func() (*mat.Matrix, error) {
			var w [][]float64
			if tfidf {
				w = weights
			}
			g := ctx.RNG.Split()
			m, err := lda.Train(lda.Config{
				Topics: k, V: ctx.Corpus.M(),
				BurnIn: ctx.Scale.LDABurnIn, Iterations: ctx.Scale.LDAIters,
				InferIterations: ctx.Scale.LDAInfer,
			}, trainDocs, w, g)
			if err != nil {
				return nil, err
			}
			return m.Representations(sub.Sets(), g), nil
		}
	}
	specs := []featureSpec{
		{"raw", func() (*mat.Matrix, error) { return sub.BinaryMatrix(), nil }},
		{"raw_tfidf", func() (*mat.Matrix, error) { return sub.TFIDFMatrix(), nil }},
		{"lda_2", ldaFeature(2, false)},
		{"lda_3", ldaFeature(3, false)},
		{"lda_4", ldaFeature(4, false)},
		{"lda_7", ldaFeature(7, false)},
		{"tfidf_lda_2", ldaFeature(2, true)},
		{"tfidf_lda_4", ldaFeature(4, true)},
	}

	res := &Figure7Result{ClusterCounts: ctx.Scale.ClusterCounts}
	for _, spec := range specs {
		features, err := spec.build()
		if err != nil {
			return nil, fmt.Errorf("eval: features %s: %w", spec.name, err)
		}
		curve := SilhouetteCurve{Feature: spec.name}
		for _, k := range ctx.Scale.ClusterCounts {
			if k >= features.Rows {
				curve.Scores = append(curve.Scores, math.NaN())
				continue
			}
			g := ctx.RNG.Split()
			km, err := cluster.KMeans(features, cluster.KMeansConfig{K: k, MaxIter: 30, Restarts: 2}, g)
			if err != nil {
				return nil, fmt.Errorf("eval: kmeans %s k=%d: %w", spec.name, k, err)
			}
			s, err := cluster.SilhouetteSampled(features, km.Assignment, k, ctx.Scale.SilhouetteSample, g)
			if err != nil {
				return nil, fmt.Errorf("eval: silhouette %s k=%d: %w", spec.name, k, err)
			}
			curve.Scores = append(curve.Scores, s)
		}
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// subsampleCompanies takes a deterministic subsample of up to n companies.
func subsampleCompanies(ctx *Context, n int) *corpus.Corpus {
	if ctx.Corpus.N() <= n {
		return ctx.Corpus
	}
	idx := ctx.RNG.Split().Perm(ctx.Corpus.N())[:n]
	return ctx.Corpus.Subset(idx)
}

// ProductPoint is one labeled 2-D point of the paper's Figures 8-9.
type ProductPoint struct {
	Name  string
	Group corpus.Group
	X, Y  float64
}

// Figure89Result holds the t-SNE projections of the LDA3 and LDA4 product
// embeddings, plus a cohesion statistic: the ratio of mean same-group
// (hardware-hardware / software-software) distance to mean cross-group
// distance. The paper observes hardware products co-locating; a ratio well
// below 1 reproduces that.
type Figure89Result struct {
	LDA3, LDA4 []ProductPoint
	Cohesion3  float64
	Cohesion4  float64
}

// RunFigure89 trains LDA3 and LDA4, projects their product embeddings with
// t-SNE, and measures group cohesion.
func RunFigure89(ctx *Context) (*Figure89Result, error) {
	res := &Figure89Result{}
	for _, k := range []int{3, 4} {
		g := ctx.RNG.Split()
		m, err := lda.Train(lda.Config{
			Topics: k, V: ctx.Corpus.M(),
			BurnIn: ctx.Scale.LDABurnIn, Iterations: ctx.Scale.LDAIters,
			InferIterations: ctx.Scale.LDAInfer,
		}, nonEmpty(ctx.Split.Train.Sets()), nil, g)
		if err != nil {
			return nil, fmt.Errorf("eval: LDA%d for t-SNE: %w", k, err)
		}
		emb := m.ProductEmbeddings()
		proj, err := tsne.Embed(emb, tsne.Config{Perplexity: 8, Iterations: 600}, g)
		if err != nil {
			return nil, fmt.Errorf("eval: t-SNE for LDA%d: %w", k, err)
		}
		points := make([]ProductPoint, ctx.Corpus.M())
		for w := 0; w < ctx.Corpus.M(); w++ {
			cat := ctx.Corpus.Catalog.Categories[w]
			points[w] = ProductPoint{Name: cat.Name, Group: cat.Group, X: proj.At(w, 0), Y: proj.At(w, 1)}
		}
		cohesion := groupCohesion(points)
		if k == 3 {
			res.LDA3, res.Cohesion3 = points, cohesion
		} else {
			res.LDA4, res.Cohesion4 = points, cohesion
		}
	}
	return res, nil
}

// groupCohesion returns mean same-group distance / mean cross-group
// distance in the 2-D projection.
func groupCohesion(points []ProductPoint) float64 {
	var same, cross float64
	var nSame, nCross int
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			dx := points[i].X - points[j].X
			dy := points[i].Y - points[j].Y
			d := math.Sqrt(dx*dx + dy*dy)
			if points[i].Group == points[j].Group {
				same += d
				nSame++
			} else {
				cross += d
				nCross++
			}
		}
	}
	if nSame == 0 || nCross == 0 || cross == 0 {
		return math.NaN()
	}
	return (same / float64(nSame)) / (cross / float64(nCross))
}

// CoclusterResult records the Section 3.1 negative result: spectral
// co-clustering on raw binary data produces one dominant co-cluster of
// globally popular products.
type CoclusterResult struct {
	K                int
	RowClusterSizes  []int
	PopularColsShare float64 // share of the 10 most popular categories that land in one column cluster
}

// RunCoclusterNote co-clusters the binary matrix and measures whether the
// popular categories concentrate in a single co-cluster.
func RunCoclusterNote(ctx *Context) (*CoclusterResult, error) {
	sub := subsampleCompanies(ctx, 600)
	k := 4
	res, err := cluster.SpectralCoCluster(sub.BinaryMatrix(), k, ctx.RNG.Split())
	if err != nil {
		return nil, err
	}
	sizes := make([]int, k)
	for _, a := range res.RowAssignment {
		sizes[a]++
	}
	// top-10 popular categories by document frequency
	df := sub.DocumentFrequencies()
	type pc struct{ cat, df int }
	top := make([]pc, 0, len(df))
	for c, d := range df {
		top = append(top, pc{c, d})
	}
	for i := 1; i < len(top); i++ {
		for j := i; j > 0 && top[j].df > top[j-1].df; j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	counts := make(map[int]int)
	for _, t := range top[:10] {
		counts[res.ColAssignment[t.cat]]++
	}
	maxShare := 0
	for _, c := range counts {
		if c > maxShare {
			maxShare = c
		}
	}
	return &CoclusterResult{
		K:                k,
		RowClusterSizes:  sizes,
		PopularColsShare: float64(maxShare) / 10,
	}, nil
}
