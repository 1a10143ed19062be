// Package ann implements the sub-linear candidate source behind the core
// index's top-k scans: a coarse k-means router (IVF-style) over the LDA
// topic simplex. Build clusters the company representations into cells and
// records, per cell, the ascending list of member companies; at query time
// the router ranks cells by the query's similarity to their centroids and
// returns only the nprobe nearest cells' members as the candidate pool,
// which core re-ranks exactly through its bounded heaps and total orders.
// With nprobe raised to the cell count the pool is the whole corpus and the
// answer is byte-identical to the exact scan — the escape hatch, and the
// recall baseline the benchmark's recall_at_10 measures against.
//
// Determinism. The cells come from one run of cluster.KMeans, which follows
// the internal/par contract (that package's comment has the rules). An
// index built at workers=1 is gob-byte-identical to one built at workers=4,
// pinned in tests alongside the 3-shard router-merge equivalence.
//
// Persistence. Save writes an IBSNAP v2 container (centroids as a float64
// section, the cell postings as CSR int64 sections, plus a fixed meta
// section carrying a CRC-32C fingerprint of the representations the index
// was built from); LoadFile mmaps it so ibserve opens the index in
// O(sections) at boot and reload instead of re-clustering, refusing a file
// whose fingerprint does not match the representations it would route for.
package ann

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/rng"
)

var (
	buildsTotal = obs.Default().Counter("ann_index_builds_total",
		"ANN coarse-router indexes trained from representations")
	mapOpensTotal = obs.Default().Counter("ann_index_mmap_opens_total",
		"ANN indexes opened zero-copy from an IBSNAP v2 mapping")
	buildSeconds = obs.Default().Gauge("ann_index_build_seconds",
		"wall-clock duration of the most recent ANN index build")
)

// Index is a coarse k-means routing index over one representation matrix:
// Centroids holds the cell centers and Offsets/IDs the cell postings in CSR
// form — cell c's members are IDs[Offsets[c]:Offsets[c+1]], ascending. All
// routing state is in exported fields so the determinism tests can compare
// whole indexes gob-byte-identically; treat a built index as immutable.
type Index struct {
	Metric  core.Metric // similarity used to rank cells at query time
	Seed    int64       // k-means++ seeding stream
	RepsCRC uint32      // Fingerprint of the representations clustered
	N       int         // companies indexed (rows of the representations)
	Inertia float64     // final k-means inertia (sum of squared distances)
	Iters   int         // Lloyd iterations run

	Centroids *mat.Matrix // Cells() x Dim()
	Offsets   []int64     // len Cells()+1, CSR offsets into IDs
	IDs       []int64     // len N, company ids grouped by cell, ascending within each

	mapped bool // centroids and postings alias an IBSNAP v2 mapping
}

// Cells returns the coarse cell count.
func (ix *Index) Cells() int { return ix.Centroids.Rows }

// Dim returns the representation dimensionality.
func (ix *Index) Dim() int { return ix.Centroids.Cols }

// Mapped reports whether the index aliases an mmap (opened via LoadFile).
func (ix *Index) Mapped() bool { return ix.mapped }

// BuildConfig parameterizes Build. Zero values select the defaults.
type BuildConfig struct {
	Cells   int     // coarse cell count; 0 selects DefaultCells(n)
	MaxIter int     // Lloyd iteration cap; 0 selects 25
	Tol     float64 // relative inertia improvement stop; 0 selects 1e-4
	Seed    int64   // k-means++ RNG seed
}

func (c *BuildConfig) fillDefaults(n int) {
	if c.Cells == 0 {
		c.Cells = DefaultCells(n)
	}
	if c.MaxIter == 0 {
		c.MaxIter = 25
	}
	if c.Tol == 0 {
		c.Tol = 1e-4
	}
}

// DefaultCells is the √n rule of thumb for the coarse cell count, clamped
// to [1, n].
func DefaultCells(n int) int {
	if n < 1 {
		return 1
	}
	c := int(math.Round(math.Sqrt(float64(n))))
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}

// Build clusters the rows of reps into cfg.Cells coarse cells and assembles
// the routing index. Deterministic at any par worker count.
func Build(reps *mat.Matrix, metric core.Metric, cfg BuildConfig) (*Index, error) {
	n := reps.Rows
	if n < 1 || reps.Cols < 1 {
		return nil, fmt.Errorf("ann: cannot index an empty representation matrix (%dx%d)", n, reps.Cols)
	}
	cfg.fillDefaults(n)
	if cfg.Cells < 1 || cfg.Cells > n {
		return nil, fmt.Errorf("ann: %d cells outside [1,%d]", cfg.Cells, n)
	}
	start := time.Now()
	km, err := cluster.KMeans(reps, cluster.KMeansConfig{
		K: cfg.Cells, MaxIter: cfg.MaxIter, Tol: cfg.Tol, Restarts: 1,
	}, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}

	// CSR postings: counting sort by cell keeps each cell's ids ascending.
	counts := make([]int64, cfg.Cells)
	for _, c := range km.Assignment {
		counts[c]++
	}
	offsets := make([]int64, cfg.Cells+1)
	for c, cnt := range counts {
		offsets[c+1] = offsets[c] + cnt
	}
	ids := make([]int64, n)
	next := make([]int64, cfg.Cells)
	copy(next, offsets[:cfg.Cells])
	for i, c := range km.Assignment {
		ids[next[c]] = int64(i)
		next[c]++
	}

	buildsTotal.Inc()
	buildSeconds.Set(time.Since(start).Seconds())
	return &Index{
		Metric:  metric,
		Seed:    cfg.Seed,
		RepsCRC: Fingerprint(reps),
		N:       n,
		Inertia: km.Inertia,
		Iters:   km.Iterations,

		Centroids: km.Centers,
		Offsets:   offsets,
		IDs:       ids,
	}, nil
}

// Router wires an Index into core's candidate scans (core.Pruner): each
// query vector probes its NProbe nearest cells (similarity descending,
// lower cell id on ties — a total order, so the probe set is unique) and
// the pool is the union of the probed cells' postings.
type Router struct {
	Index  *Index
	NProbe int // cells probed per query vector; clamped to [1, Cells()]
}

// nprobe returns NProbe clamped to the valid range.
func (r *Router) nprobe() int {
	np := r.NProbe
	if np < 1 {
		np = 1
	}
	if c := r.Index.Cells(); np > c {
		np = c
	}
	return np
}

// Candidates implements core.Pruner: the union of every query's probed
// cells, emitted as one ascending id slice per non-empty cell, cells in
// ascending order. The slices alias the index postings — callers must not
// mutate them.
func (r *Router) Candidates(queries [][]float64) [][]int64 {
	ix := r.Index
	cells := ix.Cells()
	np := r.nprobe()
	probe := make([]bool, cells)
	scores := make([]float64, cells)
	best := make([]int, np) // the np best cells so far, best first
	for _, q := range queries {
		sc := core.NewScorer(ix.Metric, q)
		sc.ScoreBlock(ix.Centroids, 0, cells, scores)
		// Bounded insertion instead of a full sort: cells arrive in ascending
		// id, so a cell goes in front of exactly those it strictly outscores
		// and a tie keeps the lower id ahead — the order a sort by (score
		// descending, id ascending) produces, cut at np.
		n := 0
		for c, s := range scores {
			j := n // the slot c takes before moving forward: the free one, or the worst cell's
			if n < np {
				n++
			} else {
				j = np - 1
				if !(s > scores[best[j]]) {
					continue
				}
			}
			for ; j > 0 && s > scores[best[j-1]]; j-- {
				best[j] = best[j-1]
			}
			best[j] = c
		}
		for _, c := range best {
			probe[c] = true
		}
	}
	out := make([][]int64, 0, np*len(queries))
	for c := 0; c < cells; c++ {
		if !probe[c] {
			continue
		}
		if ids := ix.IDs[ix.Offsets[c]:ix.Offsets[c+1]]; len(ids) > 0 {
			out = append(out, ids)
		}
	}
	return out
}

// Info implements core.Pruner for /healthz reporting.
func (r *Router) Info() core.PrunerInfo {
	return core.PrunerInfo{Cells: r.Index.Cells(), NProbe: r.nprobe(), Mapped: r.Index.mapped}
}
