package ann

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
)

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testCorpus builds n companies with simplex-like representations in d
// dimensions, the shape the router sees in production.
func testCorpus(t *testing.T, n, d int) (*corpus.Corpus, *mat.Matrix) {
	t.Helper()
	cat := corpus.DefaultCatalog()
	m := cat.Size()
	companies := make([]corpus.Company, n)
	for i := range companies {
		companies[i] = corpus.Company{
			ID: i, Name: fmt.Sprintf("co-%03d", i),
			Country: []string{"US", "DE", "GB"}[i%3], SIC2: 70 + i%4,
			Employees: 10 + i, RevenueM: float64(1 + i%9),
			Acquisitions: []corpus.Acquisition{
				{Category: i % m, First: corpus.Month(i % 12)},
				{Category: (i*7 + 3) % m, First: corpus.Month(i%12 + 1)},
			},
		}
		companies[i].SortAcquisitions()
	}
	c := corpus.New(cat, companies)
	g := rng.New(11)
	reps := mat.New(n, d)
	for i := 0; i < n; i++ {
		row := reps.Row(i)
		for j := range row {
			row[j] = g.Float64()
		}
		mat.Normalize(row)
	}
	return c, reps
}

func testIndex(t *testing.T, c *corpus.Corpus, reps *mat.Matrix) *core.Index {
	t.Helper()
	ix, err := core.NewIndex(c, reps, core.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestBuildWorkers1vs4GobIdentical is the training determinism contract:
// the whole index (centroids, postings, inertia) is gob-byte-identical at
// one worker and four, like everything else driven through internal/par.
func TestBuildWorkers1vs4GobIdentical(t *testing.T) {
	defer par.SetWorkers(4)
	_, reps := testCorpus(t, 300, 6)
	var want []byte
	for _, workers := range []int{1, 4} {
		par.SetWorkers(workers)
		ix, err := Build(reps, core.Cosine, BuildConfig{Cells: 16, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		got := gobBytes(t, ix)
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d: index differs from workers=1 build", workers)
		}
	}
}

// TestBuildPostingsCoverCorpus checks the CSR postings are a disjoint
// ascending cover of the id space.
func TestBuildPostingsCoverCorpus(t *testing.T) {
	_, reps := testCorpus(t, 257, 5) // not a multiple of trainBlock
	ix, err := Build(reps, core.Cosine, BuildConfig{Cells: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Cells() != 9 || ix.N != 257 || len(ix.IDs) != 257 || len(ix.Offsets) != 10 {
		t.Fatalf("index shape: cells=%d n=%d ids=%d offsets=%d", ix.Cells(), ix.N, len(ix.IDs), len(ix.Offsets))
	}
	seen := make([]bool, ix.N)
	for c := 0; c < ix.Cells(); c++ {
		cell := ix.IDs[ix.Offsets[c]:ix.Offsets[c+1]]
		for j, id := range cell {
			if id < 0 || id >= int64(ix.N) {
				t.Fatalf("cell %d holds out-of-range id %d", c, id)
			}
			if j > 0 && cell[j-1] >= id {
				t.Fatalf("cell %d postings not strictly ascending at %d", c, j)
			}
			if seen[id] {
				t.Fatalf("id %d appears in more than one cell", id)
			}
			seen[id] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("id %d missing from the postings", id)
		}
	}
	if ix.RepsCRC != Fingerprint(reps) {
		t.Error("RepsCRC does not match the representations the index was built from")
	}
}

// TestBuildValidation covers the Build argument edges.
func TestBuildValidation(t *testing.T) {
	_, reps := testCorpus(t, 20, 4)
	if _, err := Build(reps, core.Cosine, BuildConfig{Cells: 21}); err == nil {
		t.Error("Build accepted more cells than rows")
	}
	if _, err := Build(reps, core.Cosine, BuildConfig{Cells: -1}); err == nil {
		t.Error("Build accepted negative cells")
	}
	if _, err := Build(mat.New(0, 4), core.Cosine, BuildConfig{}); err == nil {
		t.Error("Build accepted an empty matrix")
	}
	ix, err := Build(reps, core.Cosine, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Cells() != DefaultCells(20) {
		t.Errorf("default cells = %d, want %d", ix.Cells(), DefaultCells(20))
	}
	if DefaultCells(100_000) != 316 {
		t.Errorf("DefaultCells(100000) = %d, want 316", DefaultCells(100_000))
	}
	if DefaultCells(1) != 1 || DefaultCells(0) != 1 {
		t.Error("DefaultCells must clamp to at least 1")
	}
}

// TestFullProbeMatchesExact is the escape-hatch contract: with nprobe equal
// to the cell count the pruned pool is the whole corpus, so every query
// path returns gob-byte-identical answers to the exact scan — for TopK,
// Whitespace and recommendations, under filters, at one and four workers.
func TestFullProbeMatchesExact(t *testing.T) {
	defer par.SetWorkers(4)
	c, reps := testCorpus(t, 120, 5)
	annIx, err := Build(reps, core.Cosine, BuildConfig{Cells: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	exact := testIndex(t, c, reps)
	pruned := testIndex(t, c, reps)
	pruned.SetPruner(&Router{Index: annIx, NProbe: annIx.Cells()})
	filters := []core.Filter{{}, {Country: "US"}, {SIC2: 71, MinEmployees: 20}}
	for _, workers := range []int{1, 4} {
		par.SetWorkers(workers)
		for _, f := range filters {
			for _, k := range []int{1, 7, 30} {
				want, err := exact.TopK(13, k, f)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pruned.TopK(13, k, f)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gobBytes(t, want), gobBytes(t, got)) {
					t.Fatalf("workers=%d k=%d filter=%+v: full-probe TopK differs from exact\nwant %v\ngot  %v",
						workers, k, f, want, got)
				}
				wantWS, err := exact.Whitespace([]int{2, 9, 33}, k, f)
				if err != nil {
					t.Fatal(err)
				}
				gotWS, err := pruned.Whitespace([]int{2, 9, 33}, k, f)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gobBytes(t, wantWS), gobBytes(t, gotWS)) {
					t.Fatalf("workers=%d k=%d filter=%+v: full-probe Whitespace differs from exact",
						workers, k, f)
				}
			}
			wantRec, err := exact.RecommendFromSimilar(4, 10, f)
			if err != nil {
				t.Fatal(err)
			}
			gotRec, err := pruned.RecommendFromSimilar(4, 10, f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gobBytes(t, wantRec), gobBytes(t, gotRec)) {
				t.Fatalf("filter=%+v: full-probe recommendations differ from exact", f)
			}
		}
	}
}

// TestPrunedPartition1vs3GobIdentical is the sharded composition contract:
// per-partition pruned answers, merged under the core total orders, are
// gob-byte-identical to the unsharded pruned server — every shard routes
// through the same index, prunes to the same pool and scans only its owned
// slice of it.
func TestPrunedPartition1vs3GobIdentical(t *testing.T) {
	defer par.SetWorkers(4)
	c, reps := testCorpus(t, 90, 4)
	annIx, err := Build(reps, core.Cosine, BuildConfig{Cells: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	router := &Router{Index: annIx, NProbe: 2}
	const parts = 3
	newPruned := func(part int, sharded bool) *core.Index {
		ix := testIndex(t, c, reps)
		if sharded {
			if err := ix.SetPartition(part, parts); err != nil {
				t.Fatal(err)
			}
		}
		ix.SetPruner(router)
		return ix
	}
	full := newPruned(0, false)
	filters := []core.Filter{{}, {Country: "DE"}}
	for _, workers := range []int{1, 4} {
		par.SetWorkers(workers)
		for _, f := range filters {
			for _, k := range []int{1, 5, 12} {
				want, err := full.TopK(7, k, f)
				if err != nil {
					t.Fatal(err)
				}
				perShard := make([][]core.Match, parts)
				for p := 0; p < parts; p++ {
					ms, err := newPruned(p, true).TopK(7, k, f)
					if err != nil {
						t.Fatal(err)
					}
					perShard[p] = ms
				}
				got := core.MergeTopK(perShard, k, core.MatchBetter)
				if !bytes.Equal(gobBytes(t, want), gobBytes(t, got)) {
					t.Fatalf("workers=%d k=%d filter=%+v: merged pruned partitions differ from unsharded pruned answer\nwant %v\ngot  %v",
						workers, k, f, want, got)
				}
			}
		}
		// Whitespace composes the same way.
		want, err := full.Whitespace([]int{1, 8}, 9, core.Filter{})
		if err != nil {
			t.Fatal(err)
		}
		perShard := make([][]core.WhitespaceProspect, parts)
		for p := 0; p < parts; p++ {
			ps, err := newPruned(p, true).Whitespace([]int{1, 8}, 9, core.Filter{})
			if err != nil {
				t.Fatal(err)
			}
			perShard[p] = ps
		}
		got := core.MergeTopK(perShard, 9, core.ProspectBetter)
		if !bytes.Equal(gobBytes(t, want), gobBytes(t, got)) {
			t.Fatalf("workers=%d: merged pruned whitespace partitions differ from unsharded", workers)
		}
	}
}

// TestRouterProbeSubset checks pruning actually prunes: with nprobe=1 the
// pool is one cell per query, and the self-exclusion and recall semantics
// still hold (results are a subset of the corpus ranked under MatchBetter).
func TestRouterProbeSubset(t *testing.T) {
	c, reps := testCorpus(t, 100, 4)
	annIx, err := Build(reps, core.Cosine, BuildConfig{Cells: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := &Router{Index: annIx, NProbe: 1}
	pool := r.Candidates([][]float64{reps.Row(0)})
	if len(pool) != 1 {
		t.Fatalf("nprobe=1 single query probed %d cells, want 1", len(pool))
	}
	if len(pool[0]) == 0 || len(pool[0]) == annIx.N {
		t.Fatalf("nprobe=1 pool holds %d of %d companies — expected a strict non-empty subset", len(pool[0]), annIx.N)
	}
	// The query's own cell is probed: row 0's nearest centroid cell must
	// contain company 0 for a self-similarity query to find its neighbors.
	var found bool
	for _, id := range pool[0] {
		if id == 0 {
			found = true
		}
	}
	if !found {
		t.Error("company 0's own cell was not the top probe for its own representation")
	}
	ix := testIndex(t, c, reps)
	ix.SetPruner(r)
	ms, err := ix.TopK(0, 5, core.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("pruned TopK returned nothing")
	}
	for i := 1; i < len(ms); i++ {
		if core.MatchBetter(ms[i], ms[i-1]) {
			t.Fatal("pruned TopK not sorted under MatchBetter")
		}
	}
	// NProbe clamping: absurd values degrade to the full cell range.
	if got := (&Router{Index: annIx, NProbe: 10_000}).Info(); got.NProbe != annIx.Cells() {
		t.Errorf("NProbe not clamped down: %d", got.NProbe)
	}
	if got := (&Router{Index: annIx, NProbe: -3}).Info(); got.NProbe != 1 {
		t.Errorf("NProbe not clamped up: %d", got.NProbe)
	}
}

// TestRouterProbeSelectionMatchesFullSort pins Candidates' bounded selection
// of the nprobe best cells to the full sort it replaced — score descending,
// lower cell id on ties — over centroids that repeat, so that scores tie
// exactly, at the smallest and largest probe counts.
// Cell c holds the one company c, so the pool names the probed cells.
func TestRouterProbeSelectionMatchesFullSort(t *testing.T) {
	const cells, d = 12, 3
	g := rng.New(7)
	centroids := mat.New(cells, d)
	for c := 0; c < cells; c++ {
		if c%3 == 2 {
			copy(centroids.Row(c), centroids.Row(g.Intn(c))) // an exact tie with an earlier cell
			continue
		}
		for j := range centroids.Row(c) {
			centroids.Row(c)[j] = g.Float64()
		}
	}
	ix := &Index{N: cells, Centroids: centroids, Offsets: make([]int64, cells+1), IDs: make([]int64, cells)}
	for c := 0; c < cells; c++ {
		ix.Offsets[c+1], ix.IDs[c] = int64(c+1), int64(c)
	}
	for _, query := range [][]float64{centroids.Row(2), centroids.Row(7), {0.3, 0.3, 0.4}, {0, 0, 0}} {
		scores := make([]float64, cells)
		core.NewScorer(core.Cosine, query).ScoreBlock(centroids, 0, cells, scores)
		order := make([]int, cells)
		for c := range order {
			order[c] = c
		}
		sort.Slice(order, func(a, b int) bool {
			ca, cb := order[a], order[b]
			if scores[ca] != scores[cb] {
				return scores[ca] > scores[cb]
			}
			return ca < cb
		})
		for _, np := range []int{1, 2, cells - 1, cells} {
			want := append([]int(nil), order[:np]...)
			sort.Ints(want)
			pool := (&Router{Index: ix, NProbe: np}).Candidates([][]float64{query})
			got := make([]int, len(pool))
			for p, cell := range pool {
				got[p] = int(cell[0])
			}
			if !slices.Equal(got, want) {
				t.Errorf("query %v nprobe=%d: probed cells %v, the full sort selects %v (scores %v)",
					query, np, got, want, scores)
			}
		}
	}
}

// TestRouterMultiQueryUnion checks the whitespace shape: the pool for
// several client vectors is the deduplicated union of each one's probes.
func TestRouterMultiQueryUnion(t *testing.T) {
	_, reps := testCorpus(t, 100, 4)
	annIx, err := Build(reps, core.Cosine, BuildConfig{Cells: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := &Router{Index: annIx, NProbe: 2}
	queries := [][]float64{reps.Row(0), reps.Row(50), reps.Row(99)}
	pool := r.Candidates(queries)
	if len(pool) < 2 || len(pool) > 6 {
		t.Fatalf("union of 3 queries x nprobe=2 probed %d cells, want within [2,6]", len(pool))
	}
	seen := map[int64]bool{}
	for _, cell := range pool {
		for j, id := range cell {
			if j > 0 && cell[j-1] >= id {
				t.Fatal("cell postings not strictly ascending")
			}
			if seen[id] {
				t.Fatalf("id %d duplicated across cells", id)
			}
			seen[id] = true
		}
	}
}

// BenchmarkCandidates times one query vector's routing at the serving
// benchmark's shape — 316 cells of 4 topics, 8 probed: score every centroid,
// select the probes, collect their postings.
func BenchmarkCandidates(b *testing.B) {
	const cells, d = 316, 4
	g := rng.New(1)
	ix := &Index{N: cells, Centroids: mat.New(cells, d), Offsets: make([]int64, cells+1), IDs: make([]int64, cells)}
	for c := 0; c < cells; c++ {
		g.DirichletTo(ix.Centroids.Row(c), []float64{0.3, 0.3, 0.3, 0.3})
		ix.Offsets[c+1], ix.IDs[c] = int64(c+1), int64(c)
	}
	r := &Router{Index: ix, NProbe: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pool := r.Candidates([][]float64{ix.Centroids.Row(i % cells)}); len(pool) != 8 {
			b.Fatalf("probed %d cells", len(pool))
		}
	}
}
