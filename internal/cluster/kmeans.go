// Package cluster implements k-means clustering with k-means++ seeding and
// silhouette-score evaluation, the tools behind the paper's company-
// clustering validation (Figure 7): company representations are clustered
// for a sweep of cluster counts and each clustering is scored by its
// silhouette coefficient.
//
// KMeans is the only k-means in the tree: the Figure-7 sweeps take the best
// of several restarts, the ANN coarse router (internal/ann) builds its cells
// from one run. A run uses every core and is still bit-identical at any
// worker count, which is what keeps serving indexes gob-byte-identical:
//
//   - Randomness: the k-means++ seeding consumes one RNG stream strictly
//     sequentially (first center, then one Categorical draw per remaining
//     center). The parallel phases draw no randomness at all, so there is
//     nothing scheduling can reorder.
//   - Parallel phases (seeding distance updates, the assignment step) fan
//     out over fixed-size row blocks — trainBlock rows, independent of
//     par.Workers(), unlike par.NumShards — and perform only per-index pure
//     writes into preallocated slices (d2[i], assign[i]).
//   - Floating-point reductions (inertia, centroid sums) fold per-index
//     values in index order on one goroutine, never per-shard partials.
//
// An empty cluster re-seeds at the point farthest from its assigned center
// as the assignment pass measured it (lowest index on ties); the stolen
// point is then excluded, so successive empty clusters take distinct points.
package cluster

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
)

// KMeansResult holds a clustering of n points into k clusters.
type KMeansResult struct {
	Centers    *mat.Matrix // k x d
	Assignment []int       // n, cluster index per point
	Inertia    float64     // sum of squared distances to assigned centers
	Iterations int         // Lloyd iterations actually run
}

// KMeansConfig parameterizes Lloyd's algorithm.
type KMeansConfig struct {
	K        int
	MaxIter  int     // 0 selects 100
	Tol      float64 // relative inertia improvement stop; 0 selects 1e-6
	Restarts int     // k-means++ restarts, best inertia wins; 0 selects 3
}

func (c *KMeansConfig) fillDefaults() {
	if c.MaxIter == 0 {
		c.MaxIter = 100
	}
	if c.Tol == 0 {
		c.Tol = 1e-6
	}
	if c.Restarts == 0 {
		c.Restarts = 3
	}
}

// KMeans clusters the rows of x into cfg.K clusters.
func KMeans(x *mat.Matrix, cfg KMeansConfig, g *rng.RNG) (*KMeansResult, error) {
	cfg.fillDefaults()
	if cfg.K < 1 {
		return nil, fmt.Errorf("cluster: K must be positive, got %d", cfg.K)
	}
	if x.Rows < cfg.K {
		return nil, fmt.Errorf("cluster: %d points cannot form %d clusters", x.Rows, cfg.K)
	}
	var best *KMeansResult
	for r := 0; r < cfg.Restarts; r++ {
		res := lloyd(x, cfg.K, cfg.MaxIter, cfg.Tol, g)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

// trainBlock is the fixed parallel work unit in rows. It must never depend
// on the worker count: block boundaries are part of the deterministic
// schedule (not of any float reduction, but of the d2/assign write pattern's
// cache behavior) and keeping them fixed makes the parallel phases trivially
// worker-count-invariant.
const trainBlock = 512

// forBlocks runs fn over [lo, hi) row blocks of trainBlock rows in parallel.
// fn must only write per-index slots inside its block.
func forBlocks(n int, fn func(lo, hi int)) {
	blocks := (n + trainBlock - 1) / trainBlock
	_ = par.ForEach(context.Background(), blocks, func(b int) error {
		lo := b * trainBlock
		hi := lo + trainBlock
		if hi > n {
			hi = n
		}
		fn(lo, hi)
		return nil
	})
}

// lloyd runs k-means++ seeding plus Lloyd iterations over the rows of x.
// Distances are squared Euclidean.
func lloyd(x *mat.Matrix, k, maxIter int, tol float64, g *rng.RNG) *KMeansResult {
	n := x.Rows
	centers := seed(x, k, g)
	assign := make([]int, n)
	d2 := make([]float64, n) // distance to the assigned center, per row
	counts := make([]int, k)
	prev := math.Inf(1)
	var inertia float64
	iters := 0
	for it := 0; it < maxIter; it++ {
		iters = it + 1
		// Assignment step: per-index pure writes, parallel over fixed blocks.
		forBlocks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := x.Row(i)
				bestD, bestC := math.Inf(1), 0
				for c := 0; c < k; c++ {
					if dist := mat.SqDist(row, centers.Row(c)); dist < bestD {
						bestD, bestC = dist, c
					}
				}
				assign[i] = bestC
				d2[i] = bestD
			}
		})
		// Reductions fold in index order: inertia, then the centroid sums.
		inertia = 0
		for _, v := range d2 {
			inertia += v
		}
		centers.Zero()
		for c := range counts {
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			mat.AxpyVec(1, x.Row(i), centers.Row(assign[i]))
			counts[assign[i]]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					if d2[i] > farD {
						far, farD = i, d2[i]
					}
				}
				copy(centers.Row(c), x.Row(far))
				d2[far] = -1
				continue
			}
			mat.ScaleVec(1/float64(counts[c]), centers.Row(c))
		}
		if prev-inertia <= tol*prev {
			break
		}
		prev = inertia
	}
	return &KMeansResult{Centers: centers, Assignment: assign, Inertia: inertia, Iterations: iters}
}

// seed picks k initial centers with the k-means++ D² weighting. The RNG is
// consumed sequentially (Intn, then one Categorical per center); the
// distance-table updates between draws are parallel per-index writes.
func seed(x *mat.Matrix, k int, g *rng.RNG) *mat.Matrix {
	n := x.Rows
	centers := mat.New(k, x.Cols)
	copy(centers.Row(0), x.Row(g.Intn(n)))
	d2 := make([]float64, n)
	first := centers.Row(0)
	forBlocks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d2[i] = mat.SqDist(x.Row(i), first)
		}
	})
	for c := 1; c < k; c++ {
		var total float64
		for _, v := range d2 {
			total += v
		}
		var pick int
		if total <= 0 {
			pick = g.Intn(n) // all points coincide with some center
		} else {
			pick = g.Categorical(d2)
		}
		copy(centers.Row(c), x.Row(pick))
		cr := centers.Row(c)
		forBlocks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if dd := mat.SqDist(x.Row(i), cr); dd < d2[i] {
					d2[i] = dd
				}
			}
		})
	}
	return centers
}

// Silhouette computes the mean silhouette coefficient of a clustering:
// s(i) = (b(i) - a(i)) / max(a(i), b(i)) with a(i) the mean intra-cluster
// distance and b(i) the mean distance to the nearest other cluster
// (Euclidean, matching sklearn's default used in the paper). Points in
// singleton clusters contribute 0, as in sklearn. The computation is
// O(n²·d); use SilhouetteSampled for large corpora.
func Silhouette(x *mat.Matrix, assign []int, k int) (float64, error) {
	n := x.Rows
	if len(assign) != n {
		return 0, fmt.Errorf("cluster: assignment length %d != points %d", len(assign), n)
	}
	if k < 2 {
		return 0, fmt.Errorf("cluster: silhouette needs at least 2 clusters")
	}
	counts := make([]int, k)
	for _, a := range assign {
		if a < 0 || a >= k {
			return 0, fmt.Errorf("cluster: assignment %d outside [0,%d)", a, k)
		}
		counts[a]++
	}
	sums := make([]float64, k)
	var total float64
	for i := 0; i < n; i++ {
		for c := range sums {
			sums[c] = 0
		}
		row := x.Row(i)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sums[assign[j]] += math.Sqrt(mat.SqDist(row, x.Row(j)))
		}
		ci := assign[i]
		if counts[ci] <= 1 {
			continue // silhouette of singleton defined as 0
		}
		a := sums[ci] / float64(counts[ci]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == ci || counts[c] == 0 {
				continue
			}
			if m := sums[c] / float64(counts[c]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			continue // no other non-empty cluster
		}
		if mx := math.Max(a, b); mx > 0 {
			total += (b - a) / mx
		}
	}
	return total / float64(n), nil
}

// SilhouetteSampled estimates the silhouette on a uniform sample of at most
// maxPoints points (distances still measured against the sampled set), the
// standard practical treatment for ~10^5-10^6 companies.
func SilhouetteSampled(x *mat.Matrix, assign []int, k, maxPoints int, g *rng.RNG) (float64, error) {
	if x.Rows <= maxPoints {
		return Silhouette(x, assign, k)
	}
	idx := g.Perm(x.Rows)[:maxPoints]
	sub := mat.New(maxPoints, x.Cols)
	subAssign := make([]int, maxPoints)
	for i, j := range idx {
		copy(sub.Row(i), x.Row(j))
		subAssign[i] = assign[j]
	}
	return Silhouette(sub, subAssign, k)
}
