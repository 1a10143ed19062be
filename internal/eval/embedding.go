package eval

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
	"repro/internal/lda"
	"repro/internal/mat"
	"repro/internal/sgns"
)

// EmbeddingComparisonResult tests the paper's Section 3.4 conjecture that
// word2vec-style product embeddings, aggregated per company, could serve as
// company representations: silhouette curves of SGNS mean-pooled and
// IDF-pooled company embeddings against LDA3 topic features and raw binary
// vectors, plus a product-embedding quality check (nearest-neighbor
// agreement between the SGNS and LDA product spaces).
type EmbeddingComparisonResult struct {
	ClusterCounts []int
	Curves        []SilhouetteCurve // raw, lda_3, sgns_mean, sgns_idf

	// NeighborAgreement is the mean Jaccard overlap of each product's
	// 5-nearest-neighbor sets under SGNS vs LDA embeddings; both spaces
	// derive from the same co-occurrence signal, so clearly positive
	// agreement indicates SGNS learned real structure.
	NeighborAgreement float64
}

// RunEmbeddingComparison trains SGNS and LDA3 on the training split and
// compares the derived company representations on the clustering task.
func RunEmbeddingComparison(ctx *Context) (*EmbeddingComparisonResult, error) {
	sub := subsampleCompanies(ctx, 3*ctx.Scale.SilhouetteSample)
	trainDocs := ctx.Split.Train.Sets()

	ldaModel, err := lda.Train(lda.Config{
		Topics: 3, V: ctx.Corpus.M(),
		BurnIn: ctx.Scale.LDABurnIn, Iterations: ctx.Scale.LDAIters,
		InferIterations: ctx.Scale.LDAInfer,
	}, trainDocs, nil, ctx.RNG.Split())
	if err != nil {
		return nil, fmt.Errorf("eval: LDA for embedding comparison: %w", err)
	}
	sgnsModel, err := sgns.Train(sgns.Config{V: ctx.Corpus.M(), Dim: 16}, trainDocs, ctx.RNG.Split())
	if err != nil {
		return nil, fmt.Errorf("eval: SGNS: %w", err)
	}

	idf := ctx.Split.Train.IDF()
	subDocs := sub.Sets()
	featureSets := []struct {
		name string
		mtx  *mat.Matrix
	}{
		{"raw", sub.BinaryMatrix()},
		{"lda_3", ldaModel.Representations(subDocs, ctx.RNG.Split())},
		{"sgns_mean", sgnsModel.CompanyEmbeddings(subDocs, nil)},
		{"sgns_idf", sgnsModel.CompanyEmbeddings(subDocs, idf)},
	}

	res := &EmbeddingComparisonResult{ClusterCounts: ctx.Scale.ClusterCounts}
	for _, f := range featureSets {
		curve := SilhouetteCurve{Feature: f.name}
		for _, k := range ctx.Scale.ClusterCounts {
			if k >= f.mtx.Rows {
				curve.Scores = append(curve.Scores, math.NaN())
				continue
			}
			g := ctx.RNG.Split()
			km, err := cluster.KMeans(f.mtx, cluster.KMeansConfig{K: k, MaxIter: 30, Restarts: 2}, g)
			if err != nil {
				return nil, fmt.Errorf("eval: kmeans %s k=%d: %w", f.name, k, err)
			}
			s, err := cluster.SilhouetteSampled(f.mtx, km.Assignment, k, ctx.Scale.SilhouetteSample, g)
			if err != nil {
				return nil, err
			}
			curve.Scores = append(curve.Scores, s)
		}
		res.Curves = append(res.Curves, curve)
	}

	// Product-space neighbor agreement between SGNS and LDA embeddings.
	ldaEmb := ldaModel.ProductEmbeddings()
	var agree float64
	const k = 5
	for w := 0; w < ctx.Corpus.M(); w++ {
		sg := sgnsModel.Neighbors(w, k)
		ld := mat.NearestByCosine(ldaEmb, w, k)
		agree += jaccard(sg, ld)
	}
	res.NeighborAgreement = agree / float64(ctx.Corpus.M())
	return res, nil
}

// Render formats the comparison.
func (r *EmbeddingComparisonResult) Render() string {
	var b strings.Builder
	b.WriteString("Embedding comparison (paper Section 3.4: word2vec-style representations)\n")
	b.WriteString("  clusters:    ")
	for _, k := range r.ClusterCounts {
		fmt.Fprintf(&b, " %6d", k)
	}
	b.WriteByte('\n')
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "  %-10s:", c.Feature)
		for _, s := range c.Scores {
			if math.IsNaN(s) {
				fmt.Fprintf(&b, "      -")
			} else {
				fmt.Fprintf(&b, " %6.3f", s)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  SGNS-vs-LDA product neighbor agreement (Jaccard@5): %.3f\n", r.NeighborAgreement)
	return b.String()
}

func jaccard(a, b []int) float64 {
	set := make(map[int]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	inter := 0
	for _, x := range b {
		if set[x] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
