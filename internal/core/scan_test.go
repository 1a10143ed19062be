package core

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// cellPruner is a stub Pruner over fixed cells of consecutive ids: it probes
// the first probe cells whatever the query, so its pools are deterministic
// and probe == number of cells is a full probe.
type cellPruner struct {
	cells [][]int64
	probe int
}

func newCellPruner(n, cells, probe int) *cellPruner {
	p := &cellPruner{cells: make([][]int64, cells), probe: probe}
	for i := 0; i < n; i++ {
		c := i * cells / n
		p.cells[c] = append(p.cells[c], int64(i))
	}
	return p
}

func (p *cellPruner) Candidates([][]float64) [][]int64 { return p.cells[:p.probe] }

func (p *cellPruner) Info() PrunerInfo { return PrunerInfo{Cells: len(p.cells), NProbe: p.probe} }

// scanFixture builds n companies with seeded topic-mixture-like rows of
// dimension d and attributes spread over ten countries and eight industries.
func scanFixture(n, d int, seed int64) (*corpus.Corpus, *mat.Matrix) {
	g := rng.New(seed)
	cat := corpus.DefaultCatalog()
	companies := make([]corpus.Company, n)
	reps := mat.New(n, d)
	alpha := make([]float64, d)
	for j := range alpha {
		alpha[j] = 0.3
	}
	for i := range companies {
		companies[i] = corpus.Company{
			ID: i, Name: fmt.Sprintf("co-%d", i),
			Country: fmt.Sprintf("C%d", g.Intn(10)), SIC2: 70 + g.Intn(8),
			Employees: 1 + g.Intn(5000), RevenueM: float64(g.Intn(900)),
		}
		g.DirichletTo(reps.Row(i), alpha)
	}
	return corpus.New(cat, companies), reps
}

// TestOwnedCompaniesMatchesWalk pins the O(1) OwnedCompanies (the /healthz
// partition block reads it on every probe) to the walk it replaced: hash
// every id, count the owned ones.
func TestOwnedCompaniesMatchesWalk(t *testing.T) {
	c, reps := bigFixture(501)
	for _, parts := range []int{1, 2, 3, 7} {
		var total int
		for part := 0; part < parts; part++ {
			ix, err := NewIndex(c, reps, Cosine)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.SetPartition(part, parts); err != nil {
				t.Fatal(err)
			}
			var walk int
			for i := 0; i < c.N(); i++ {
				if PartitionOf(i, parts) == part {
					walk++
				}
			}
			if got := ix.OwnedCompanies(); got != walk {
				t.Errorf("parts=%d part=%d: OwnedCompanies() = %d, walk counts %d", parts, part, got, walk)
			}
			total += ix.OwnedCompanies()
		}
		if total != c.N() {
			t.Errorf("parts=%d: partitions own %d companies in total, corpus has %d", parts, total, c.N())
		}
	}
}

// TestFilterColumnsMatchAdmits pins the filter columns — a second copy of
// four corpus.Company fields — to the structs they were copied from: for
// every company of a generated corpus and every filter of the table, the
// column test and Filter.Admits agree.
func TestFilterColumnsMatchAdmits(t *testing.T) {
	gen, err := datagen.NewGenerator(datagen.DefaultConfig(1500, 7))
	if err != nil {
		t.Fatal(err)
	}
	c := gen.Generate()
	cols := newFilterColumns(c.Companies)
	a, b := &c.Companies[3], &c.Companies[1100]
	emp := []int{a.Employees, b.Employees}
	sort.Ints(emp)
	rev := []float64{a.RevenueM, b.RevenueM}
	sort.Float64s(rev)
	filters := []Filter{
		{},
		{SIC2: a.SIC2},
		{SIC2: 99999},
		{SIC2: -1},
		{Country: a.Country},
		{Country: "no-such-country"},
		{Country: a.Country + " "},
		{MinEmployees: emp[0]},
		{MaxEmployees: emp[0]},
		{MinEmployees: emp[0], MaxEmployees: emp[1]},
		{MinEmployees: emp[1], MaxEmployees: emp[0]},
		{MinEmployees: -5},
		{MinRevenueM: rev[0]},
		{MaxRevenueM: rev[1]},
		{MinRevenueM: rev[0], MaxRevenueM: rev[1]},
		{MinRevenueM: math.Inf(1)},
		{MaxRevenueM: math.NaN()},
		{SIC2: b.SIC2, Country: b.Country, MinEmployees: 1, MaxRevenueM: b.RevenueM},
		{SIC2: a.SIC2, Country: b.Country, MaxEmployees: emp[1], MinRevenueM: rev[0]},
	}
	for _, f := range filters {
		cf := cols.bind(f)
		var admitted int
		for i := range c.Companies {
			want := f.Admits(&c.Companies[i])
			if got := cf.admits(i); got != want {
				t.Fatalf("filter %+v company %d (%+v): columns admit=%v, Filter.Admits=%v",
					f, i, c.Companies[i], got, want)
			}
			if want {
				admitted++
			}
		}
		t.Logf("%-70s admits %d of %d", f.Key(), admitted, c.N())
	}
}

// TestNormColumnOverMappedReps builds one index over heap representations
// and one over the same matrix read back through an mmapped IBSNAP v2
// section: the norm column is computed from whatever memory Reps aliases, and
// must come out bit-identical.
func TestNormColumnOverMappedReps(t *testing.T) {
	c, reps := scanFixture(300, 6, 5)
	for j := range reps.Row(17) {
		reps.Row(17)[j] = 0
	}
	sb := snapshot.NewBuilder("core-test-reps")
	if err := sb.AddFloat64("reps", reps.Data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "reps.ibsnap")
	if err := sb.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Map(path, snapshot.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := f.Float64Section("reps")
	if err != nil {
		t.Fatal(err)
	}
	heap, err := NewIndex(c, reps, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := NewIndex(c, &mat.Matrix{Rows: reps.Rows, Cols: reps.Cols, Data: data}, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Mapped() {
		t.Log("filesystem refused mmap; compared against the read fallback")
	}
	for i := range heap.norms {
		if math.Float64bits(heap.norms[i]) != math.Float64bits(mapped.norms[i]) {
			t.Fatalf("row %d: heap norm %v, mapped norm %v", i, heap.norms[i], mapped.norms[i])
		}
		if want := mat.Norm2(reps.Row(i)); math.Float64bits(heap.norms[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: norm column %v, mat.Norm2 %v", i, heap.norms[i], want)
		}
	}
	if heap.norms[17] != 0 {
		t.Fatalf("zero row has norm %v", heap.norms[17])
	}
}

// diffFixture is scanFixture bent towards the scan's edge cases: all-zero
// rows (the zero-norm guard), rows duplicated at distant ids (bit-equal
// scores, so the id tie-break decides) and mixed-sign coordinates.
func diffFixture(n, d int, seed int64) (*corpus.Corpus, *mat.Matrix) {
	c, reps := scanFixture(n, d, seed)
	g := rng.New(seed + 1)
	for r := 0; r < n/10; r++ {
		i := g.Intn(n)
		switch r % 3 {
		case 0:
			for j := range reps.Row(i) {
				reps.Row(i)[j] = 0
			}
		case 1:
			copy(reps.Row(i), reps.Row(g.Intn(n)))
		case 2:
			reps.Row(i)[g.Intn(d)] -= 0.5
		}
	}
	return c, reps
}

// drawFilter draws a filter whose values come from the corpus itself (so
// range bounds land on attribute values), from outside it, or stay zero.
func drawFilter(g *rng.RNG, c *corpus.Corpus) Filter {
	pick := func() *corpus.Company { return &c.Companies[g.Intn(c.N())] }
	var f Filter
	if g.Intn(4) == 0 {
		return f
	}
	switch g.Intn(4) {
	case 0:
		f.SIC2 = pick().SIC2
	case 1:
		f.SIC2 = 12345
	}
	switch g.Intn(4) {
	case 0:
		f.Country = pick().Country
	case 1:
		f.Country = "nowhere"
	}
	if g.Intn(3) == 0 {
		f.MinEmployees = pick().Employees
	}
	if g.Intn(3) == 0 {
		f.MaxEmployees = pick().Employees
	}
	if g.Intn(3) == 0 {
		f.MinRevenueM = pick().RevenueM
	}
	if g.Intn(3) == 0 {
		f.MaxRevenueM = pick().RevenueM
	}
	return f
}

// TestScanDifferential is the seeded differential test of the candidate
// loop: over drawn (metric, partition, pruner, filter, k, query) tuples, at
// one worker and at four, TopK / TopKByVector / Whitespace must equal a
// naive reference — Index.similarity over Filter.Admits survivors, fully
// sorted — bit for bit, and the top-k candidate counters must move by exactly
// what the reference counted.
func TestScanDifferential(t *testing.T) {
	const n, d, rounds = 300, 5, 400
	c, reps := diffFixture(n, d, 42)
	g := rng.New(4242)
	defer par.SetWorkers(0)

	indexes := make(map[string]*Index)
	index := func(metric Metric, part, parts int, pruned bool) *Index {
		key := fmt.Sprintf("%v/%d/%d/%v", metric, part, parts, pruned)
		if ix, ok := indexes[key]; ok {
			return ix
		}
		ix, err := NewIndex(c, reps, metric)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.SetPartition(part, parts); err != nil {
			t.Fatal(err)
		}
		if pruned {
			ix.SetPruner(newCellPruner(n, 7, 7)) // full probe: every cell, every id
		}
		indexes[key] = ix
		return ix
	}

	for round := 0; round < rounds; round++ {
		metric := []Metric{Cosine, Euclidean}[g.Intn(2)]
		parts := []int{1, 2, 3, 7}[g.Intn(4)]
		part := g.Intn(parts)
		ix := index(metric, part, parts, g.Intn(2) == 0)
		f := drawFilter(g, c)
		k := []int{1, 2, 5, 10, 40, n + 10}[g.Intn(6)]
		owned := func(i int) bool { return parts == 1 || PartitionOf(i, parts) == part }
		desc := fmt.Sprintf("round %d: metric=%v part=%d/%d pruned=%v k=%d filter=%s",
			round, metric, part, parts, ix.Pruner() != nil, k, f.Key())

		if g.Intn(3) == 0 { // white-space
			clients := make([]int, 1+g.Intn(2*idSetListMax))
			for ci := range clients {
				clients[ci] = g.Intn(n)
			}
			if len(clients) > 2 {
				clients[len(clients)-1] = clients[0] // a duplicate
			}
			isClient := make(map[int]bool)
			for _, id := range clients {
				isClient[id] = true
			}
			var want []WhitespaceProspect
			for i := 0; i < n; i++ {
				if !owned(i) || isClient[i] || !f.Admits(&c.Companies[i]) {
					continue
				}
				p := WhitespaceProspect{CompanyID: i, NearestClient: -1, Similarity: math.Inf(-1)}
				for _, id := range clients {
					if sim := ix.similarity(reps.Row(id), reps.Row(i)); sim > p.Similarity {
						p.Similarity, p.NearestClient = sim, id
					}
				}
				want = append(want, p)
			}
			sort.Slice(want, func(a, b int) bool { return ProspectBetter(want[a], want[b]) })
			want = want[:min(k, len(want))]
			for _, workers := range []int{1, 4} {
				par.SetWorkers(workers)
				got, err := ix.Whitespace(clients, k, f)
				if err != nil {
					t.Fatalf("%s clients=%v: %v", desc, clients, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s clients=%v workers=%d: %d prospects, want %d", desc, clients, workers, len(got), len(want))
				}
				for r := range want {
					if got[r].CompanyID != want[r].CompanyID || got[r].NearestClient != want[r].NearestClient ||
						math.Float64bits(got[r].Similarity) != math.Float64bits(want[r].Similarity) {
						t.Fatalf("%s clients=%v workers=%d rank %d: got %+v, want %+v", desc, clients, workers, r, got[r], want[r])
					}
				}
			}
			continue
		}

		// top-k: by id (the query company is excluded) or by a free vector
		exclude, query := g.Intn(n), []float64(nil)
		if g.Intn(3) == 0 {
			exclude, query = -1, make([]float64, d)
			for j := range query {
				query[j] = g.Float64() - 0.2
			}
		} else {
			query = reps.Row(exclude)
		}
		var want []Match
		var admitted, rejected uint64
		for i := 0; i < n; i++ {
			if i == exclude || !owned(i) {
				continue
			}
			if !f.Admits(&c.Companies[i]) {
				rejected++
				continue
			}
			admitted++
			want = append(want, Match{CompanyID: i, Similarity: ix.similarity(query, reps.Row(i))})
		}
		sort.Slice(want, func(a, b int) bool { return MatchBetter(want[a], want[b]) })
		want = want[:min(k, len(want))]
		for _, workers := range []int{1, 4} {
			par.SetWorkers(workers)
			admitted0, rejected0 := topkAdmitted.Value(), topkFiltered.Value()
			var got []Match
			var err error
			if exclude >= 0 {
				got, err = ix.TopK(exclude, k, f)
			} else {
				got, err = ix.TopKByVector(query, k, f)
			}
			if err != nil {
				t.Fatalf("%s exclude=%d: %v", desc, exclude, err)
			}
			if da, dr := topkAdmitted.Value()-admitted0, topkFiltered.Value()-rejected0; da != admitted || dr != rejected {
				t.Fatalf("%s exclude=%d workers=%d: counters moved by admitted=%d filtered=%d, reference counted %d and %d",
					desc, exclude, workers, da, dr, admitted, rejected)
			}
			if len(got) != len(want) {
				t.Fatalf("%s exclude=%d workers=%d: %d matches, want %d", desc, exclude, workers, len(got), len(want))
			}
			for r := range want {
				if got[r].CompanyID != want[r].CompanyID ||
					math.Float64bits(got[r].Similarity) != math.Float64bits(want[r].Similarity) {
					t.Fatalf("%s exclude=%d workers=%d rank %d: got %+v, want %+v", desc, exclude, workers, r, got[r], want[r])
				}
			}
		}
	}
}
