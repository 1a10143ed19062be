package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/snapshot"
	"repro/internal/trace"
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
// column test and Filter.Admits agree. It pins the candidate lists built from
// the two equality columns the same way, unpartitioned and as each third of
// three: each list ascends and holds only ids of its code, the lists of a
// column hold every owned id once, and the rows an exact scan walks (a list,
// or every owned row) and admits are exactly the owned rows Filter.Admits
// admits, the others counted filtered. Going back to one partition restores
// the lists NewIndex built.
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
		{SIC2: a.SIC2, Country: "no-such-country"},
		{SIC2: a.SIC2, MinRevenueM: rev[0], MaxRevenueM: rev[1]},
		{Country: b.Country, MinEmployees: emp[0], MaxEmployees: emp[1]},
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

	full, err := NewIndex(c, mat.New(c.N(), 2), Cosine)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 3} {
		for part := 0; part < parts; part++ {
			ix := *full
			if err := ix.SetPartition(part, parts); err != nil {
				t.Fatal(err)
			}
			owned := func(i int) bool { return PartitionOf(i, parts) == part }
			for _, col := range []struct {
				name  string
				lists codeLists
				codes []uint32
			}{{"sic2", ix.bySIC2, cols.sic2}, {"country", ix.byCountry, cols.country}} {
				listed := make([]bool, c.N())
				for code := range len(col.lists.start) - 1 {
					list := col.lists.of(uint32(code))
					for j, id := range list {
						if j > 0 && list[j-1] >= id {
							t.Fatalf("part %d/%d: %s list of code %d does not ascend at %d: %v", part, parts, col.name, code, j, list)
						}
						if col.codes[id] != uint32(code) || !owned(int(id)) || listed[id] {
							t.Fatalf("part %d/%d: %s list of code %d holds id %d (code %d, owned %v, listed before %v)",
								part, parts, col.name, code, id, col.codes[id], owned(int(id)), listed[id])
						}
						listed[id] = true
					}
				}
				for i, ok := range listed {
					if ok != owned(i) {
						t.Fatalf("part %d/%d: %s lists hold id %d: %v, it is owned: %v", part, parts, col.name, i, ok, owned(i))
					}
				}
			}
			for _, f := range filters {
				q := ix.newScan(1, f, [][]float64{ix.Reps.Row(0)}, []int{-1})
				walked := len(q.rows)
				if q.rows == nil {
					walked = c.N()
				}
				var got, want []int
				for p := range walked {
					i := p
					if q.rows != nil {
						i = int(q.rows[p])
					}
					if !q.filtered || q.filter.admits(i) {
						got = append(got, i)
					}
				}
				var refused int
				for i := range c.Companies {
					switch {
					case !owned(i):
					case f.Admits(&c.Companies[i]):
						want = append(want, i)
					default:
						refused++
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("part %d/%d filter %s: the scan admits %d rows, Filter.Admits %d: %v, want %v",
						part, parts, f.Key(), len(got), len(want), got, want)
				}
				if filtered := walked - len(got) + int(q.outside); filtered != refused {
					t.Fatalf("part %d/%d filter %s: %d rows counted filtered, Filter.Admits refuses %d",
						part, parts, f.Key(), filtered, refused)
				}
			}
		}
	}
	ix := *full
	if err := ix.SetPartition(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := ix.SetPartition(0, 1); err != nil {
		t.Fatal(err)
	}
	if ix.owned != nil || !reflect.DeepEqual(ix.bySIC2, full.bySIC2) || !reflect.DeepEqual(ix.byCountry, full.byCountry) {
		t.Fatal("SetPartition(0, 1) after SetPartition(1, 3) does not restore the lists NewIndex built")
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

// diffFixture is scanFixture bent towards the scan's edge cases, the floor
// test's above all. A third of the rows are rewritten, most as relatives of a
// few anchor rows, so that whole families score within an ulp of one another
// and the heap's floor sits among them: exact duplicates (bit-equal scores,
// so the id tie-break decides), positive scalings from 2^-300 to 2^300 (the
// same cosine up to rounding), math.Nextafter perturbations of one
// component, the negated row; and all-zero rows, rows of subnormal components
// (nonzero, yet their norm is zero too), ±0 and negative components. wild
// adds rows whose norms are finite but outside the range the floor test is
// proved for, so that an index over them must scan without it. The anchors lie
// among the first scanChunk-1 rows: every prefix a test scans holds them all.
func diffFixture(n, d int, seed int64, wild bool) (*corpus.Corpus, *mat.Matrix, []int) {
	c, reps := scanFixture(n, d, seed)
	g := rng.New(seed + 1)
	anchors := make([]int, 6)
	for a := range anchors {
		anchors[a] = g.Intn(min(n, scanChunk-1))
	}
	isAnchor := func(i int) bool { return slices.Contains(anchors, i) }
	scales := []float64{0.5, 3, 1.0 / 3, 7, 1 + 0x1p-52, 0x1p+300, 0x1p-300, 0x1p+150}
	kinds := 9
	if wild {
		kinds = 10
	}
	for r := 0; r < n/3; r++ {
		i := g.Intn(n)
		if isAnchor(i) {
			continue
		}
		row, anchor := reps.Row(i), reps.Row(anchors[g.Intn(len(anchors))])
		switch r % kinds {
		case 0:
			clear(row)
		case 1:
			copy(row, anchor)
		case 2:
			row[g.Intn(d)] -= 0.5
		case 3:
			scale := scales[g.Intn(len(scales))]
			for j, v := range anchor {
				row[j] = v * scale
			}
		case 4:
			copy(row, anchor)
			j := g.Intn(d)
			row[j] = math.Nextafter(row[j], math.Inf(2*g.Intn(2)-1))
		case 5:
			for j, v := range anchor {
				row[j] = -v
			}
		case 6:
			for j := range row {
				row[j] = float64(g.Intn(5)-1) * 5e-324
			}
		case 7:
			row[g.Intn(d)] = math.Copysign(0, -1)
		case 8:
			row[g.Intn(d)] = 0
		case 9:
			scale := []float64{0x1p-510, 0x1p+505}[g.Intn(2)]
			for j, v := range anchor {
				row[j] = v * scale
			}
		}
	}
	return c, reps, anchors
}

// drawQuery draws a free query vector: random coordinates of either sign, or
// an anchor row exactly, scaled, perturbed by one ulp or with a zeroed
// coordinate, or the zero vector.
func drawQuery(g *rng.RNG, reps *mat.Matrix, anchors []int, wild bool) []float64 {
	query := make([]float64, reps.Cols)
	copy(query, reps.Row(anchors[g.Intn(len(anchors))]))
	j := g.Intn(len(query))
	switch g.Intn(7) {
	case 0, 1:
		for c := range query {
			query[c] = g.Float64() - 0.2
		}
	case 2: // the anchor itself
	case 3:
		scales := []float64{0x1p+300, 0x1p-300, 3}
		if wild {
			scales = append(scales, 0x1p-510, 0x1p+505)
		}
		scale := scales[g.Intn(len(scales))]
		for c := range query {
			query[c] *= scale
		}
	case 4:
		query[j] = math.Nextafter(query[j], math.Inf(2*g.Intn(2)-1))
	case 5:
		query[j] = math.Copysign(0, float64(2*g.Intn(2)-1))
	case 6:
		clear(query)
	}
	return query
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

// plantBoundaries puts relatives of the anchors either side of every task
// boundary of an exact scan, so that an anchor query's floor is tied across
// it: at owned positions b-1 and b, for b one and two scanChunks, a copy of an
// anchor; at b-2 and b+1 its math.Nextafter neighbours. The positions are
// resolved for each view the test scans the fixture through — unpartitioned
// and either half of two — one anchor per boundary.
func plantBoundaries(reps *mat.Matrix, anchors []int) {
	views := make([][]int, 3) // every id, the ids of 0/2, the ids of 1/2
	for i := 0; i < reps.Rows; i++ {
		views[0] = append(views[0], i)
		views[1+PartitionOf(i, 2)] = append(views[1+PartitionOf(i, 2)], i)
	}
	site := 0
	for _, owned := range views {
		for _, b := range []int{scanChunk, 2 * scanChunk} {
			anchor := reps.Row(anchors[site%len(anchors)])
			site++
			for j, ulps := range []int{-1, 0, 0, 1} {
				id := owned[b-2+j]
				if slices.Contains(anchors, id) {
					continue
				}
				copy(reps.Row(id), anchor)
				if ulps != 0 {
					reps.Row(id)[0] = math.Nextafter(anchor[0], math.Inf(ulps))
				}
			}
		}
	}
}

// plantCopies overwrites count rows — every step-th row from the first that
// is not an anchor — with exact copies of the first anchor, so that an anchor
// query's k-th place is a tie that straddles leaves.
func plantCopies(reps *mat.Matrix, anchors []int, count, step int) {
	for i, planted := 0, 0; planted < count; i += step {
		if !slices.Contains(anchors, i) {
			copy(reps.Row(i), reps.Row(anchors[0]))
			planted++
		}
	}
}

// flatten rewrites every row as the first anchor's, scaled by a factor from
// 2⁻³⁰⁰ to 2³⁰⁰ and each coordinate then moved by up to a millionth of itself.
// Every cone then holds every row within its margin, so that against any row
// every node's bound is 1 + coneSlack: a search cannot skip a node, and reads
// the leaves left to right. The rows still differ enough for the splits to
// scatter ids among the leaves.
func flatten(reps *mat.Matrix, anchors []int, seed int64) {
	g := rng.New(seed)
	dir := slices.Clone(reps.Row(anchors[0]))
	scales := []float64{0.5, 3, 1.0 / 3, 7, 0x1p+300, 0x1p-300}
	for i := 0; i < reps.Rows; i++ {
		scale := scales[g.Intn(len(scales))]
		for j, v := range dir {
			reps.Row(i)[j] = v * scale * (1 + 1e-6*(g.Float64()-0.5))
		}
	}
}

// spanAttrs runs call under a sampled trace and returns the attributes of
// the one span it starts, which must be named name.
func spanAttrs(t *testing.T, name string, call func(ctx context.Context) error) map[string]string {
	t.Helper()
	tr := trace.NewTracer(4)
	tr.SetEnabled(true)
	tr.SetSampleRate(1)
	ctx, root := tr.Start(context.Background(), "test")
	err := call(ctx)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	tj, ok := tr.Get(root.TraceID().String())
	if !ok || len(tj.Root.Children) != 1 || tj.Root.Children[0].Name != name {
		t.Fatalf("trace %+v, want one %s span under the root", tj, name)
	}
	attrs := map[string]string{}
	for _, a := range tj.Root.Children[0].Attrs {
		attrs[a.Key] = a.Value
	}
	return attrs
}

// cellsAround is a full-probe pruner laid out around one answer: the ids of
// top (ascending, as a cell's are) make up the first cell, the last one, or
// are split between the two, so that the carried floor is at its highest for
// every later cell, at its lowest until the last, or tied across the scan. The
// other ids are cut, in order, into cells of drawn sizes: empty, one row,
// fewer than k rows, many blocks.
func cellsAround(g *rng.RNG, n, k int, top []int, where int) *cellPruner {
	top = slices.Clone(top)
	sort.Ints(top)
	var rest []int64
	for i := 0; i < n; i++ {
		if _, isTop := slices.BinarySearch(top, i); !isTop {
			rest = append(rest, int64(i))
		}
	}
	var cells [][]int64
	for len(rest) > 0 {
		size := 0
		switch g.Intn(4) {
		case 1:
			size = 1
		case 2:
			size = g.Intn(k)
		case 3:
			size = n/8 + g.Intn(n/8)
		}
		size = min(size, len(rest))
		cells = append(cells, rest[:size:size])
		rest = rest[size:]
	}
	cell := func(ids []int) []int64 {
		out := make([]int64, len(ids))
		for j, id := range ids {
			out[j] = int64(id)
		}
		return out
	}
	switch where {
	case 0:
		cells = append([][]int64{cell(top)}, cells...)
	case 1:
		cells = append(cells, cell(top))
	case 2:
		cells = append(append([][]int64{cell(top[:len(top)/2])}, cells...), cell(top[len(top)/2:]))
	}
	return &cellPruner{cells: cells, probe: len(cells)}
}

// TestScanDifferential is the seeded differential test of the one scan driver
// and its candidate loop: over drawn (dimension, metric, size, partition,
// pruner, filter, k, query) tuples, at one, two and four workers, TopK /
// TopKByVector / Whitespace must equal a naive reference — Index.similarity
// over Filter.Admits survivors, fully sorted — bit for bit, and the top-k
// candidate counters must move by exactly what the reference counted.
// Dimensions 1 to 9 cover the widths the floor test unrolls and the ones it
// loops over; k reaches from 1 past the block size to more than there are
// rows.
//
// Most rounds scan a fixture of some 3000 rows: one task when exact, and under
// a pruner as many as it has cells, all offered to one selection. The pruner
// has seven even cells or is laid out around the round's own answer
// (cellsAround). An unfiltered exact cosine scan visits the index's leaves
// instead, searching its cone tree best bound first; one round in four of
// those over a small fixture is such a scan of one that holds more exact
// copies of an anchor than a leaf holds, querying that anchor, so that the
// k-th place is tied across leaves (plantCopies). Every other such round is
// the deep-tree arm: a fixture of 5·leafRows+7 rows, a tree four levels deep,
// more than half of whose rows are those copies, so that the tie straddles
// the root's two subtrees. The third of them is the hand-off arm: a fixture
// of 2·minFanoutRows+77 rows no cone can prune (flatten), whose search hands
// off all but its first handOffRows rows or so as subtrees, which the workers
// visit; it queries ids the search has handed off — the least or greatest of
// them, which lie outside the ends of a block that spans leaves, or any — and
// a traced call shows that rows were handed off. One round in five scans
// a prefix of a large fixture that owns scanChunk-1 rows (one task, below
// minFanoutRows), scanChunk or scanChunk+1 (the rule's other side; one task
// and a one-row second), or two chunks and a ragged third, unpartitioned or as
// half of two, with tied rows planted across the task boundaries
// (plantBoundaries). A few rounds scan a partition that owns no row at all.
func TestScanDifferential(t *testing.T) {
	const rounds = 600
	g := rng.New(4242)
	defer par.SetWorkers(0)

	type fixture struct {
		c       *corpus.Corpus
		reps    *mat.Matrix
		anchors []int
	}
	largeOwned := []int{scanChunk - 1, scanChunk, scanChunk + 1, 2*scanChunk + 3*scanBlock - 19}
	fixtures := make(map[string]fixture)
	indexes := make(map[string]*Index)
	// index returns the index of a round and the fixture it is over. owned is
	// 0 for a small fixture, scanned whole, and -1 for its first row, which the
	// partition does not own; otherwise the index is over the shortest prefix
	// of a large fixture of which the partition owns that many rows (built per
	// round: a cache of those would hold too much).
	index := func(d int, wild, planted, deep, flat bool, metric Metric, part, parts, owned int) (*Index, fixture) {
		fkey := fmt.Sprintf("%d/%v/%v/%v/%v/%v", d, wild, planted, deep, flat, owned > 0)
		fx, ok := fixtures[fkey]
		if !ok {
			n := 3*4*scanBlock - 50 - 13*d // ragged at every cell count used
			switch {
			case owned > 0:
				n = 2*largeOwned[len(largeOwned)-1] + 2000
			case deep:
				n = 5*leafRows + 7
			case flat:
				n = 2*minFanoutRows + 77
			}
			fx.c, fx.reps, fx.anchors = diffFixture(n, d, int64(42+d), wild)
			switch {
			case flat:
				flatten(fx.reps, fx.anchors, int64(d))
			case deep:
				plantCopies(fx.reps, fx.anchors, 3*leafRows, 1)
			case planted:
				plantCopies(fx.reps, fx.anchors, scanBlock+45, 3)
			}
			if owned > 0 {
				plantBoundaries(fx.reps, fx.anchors)
			}
			fixtures[fkey] = fx
		}
		key := fmt.Sprintf("%s/%v/%d/%d", fkey, metric, part, parts)
		if ix, ok := indexes[key]; ok && owned == 0 {
			return ix, fx
		}
		if owned > 0 {
			n := 0
			for left := owned; left > 0 && n < fx.c.N(); n++ {
				if parts == 1 || PartitionOf(n, parts) == part {
					left--
				}
			}
			fx.c = corpus.New(fx.c.Catalog, fx.c.Companies[:n])
			fx.reps = &mat.Matrix{Rows: n, Cols: d, Data: fx.reps.Data[:n*d]}
		}
		if owned < 0 {
			fx.c = corpus.New(fx.c.Catalog, fx.c.Companies[:1])
			fx.reps = &mat.Matrix{Rows: 1, Cols: d, Data: fx.reps.Data[:d]}
			fx.anchors = []int{0}
		}
		ix, err := NewIndex(fx.c, fx.reps, metric)
		if err != nil {
			t.Fatal(err)
		}
		// The tame fixtures are the ones the floor test must run on, zero-norm
		// rows and 2^±300 scalings included; the wild ones must switch it off.
		if owned >= 0 && ix.normsInRange == wild {
			t.Fatalf("d=%d wild=%v: normsInRange = %v", d, wild, ix.normsInRange)
		}
		if err := ix.SetPartition(part, parts); err != nil {
			t.Fatal(err)
		}
		if owned == 0 {
			indexes[key] = ix
		}
		if deep && metric == Cosine {
			// The fixture is what the arm says: a deep tree whose root splits the
			// copies between its two subtrees.
			tr := &ix.tree
			depth := 0
			for nd := 0; ; nd++ {
				depth++
				if tr.nodes[nd].right == 0 {
					break
				}
			}
			copies := func(nd uint32) bool {
				return slices.ContainsFunc(tr.rows[tr.nodes[nd].lo:tr.nodes[nd].hi], func(id uint32) bool {
					return int(id) != fx.anchors[0] && slices.Equal(fx.reps.Row(int(id)), fx.reps.Row(fx.anchors[0]))
				})
			}
			if right := tr.nodes[0].right; depth < 4 || !copies(1) || !copies(right) {
				t.Fatalf("d=%d: the deep fixture's tree is %d levels deep, its root's subtrees hold copies: %v, %v",
					d, depth, right != 0 && copies(1), right != 0 && copies(right))
			}
		}
		return ix, fx
	}

	for round := 0; round < rounds; round++ {
		d := 1 + g.Intn(9)
		wild := g.Intn(5) == 0
		metric := []Metric{Cosine, Euclidean}[g.Intn(2)]
		parts := []int{1, 2, 3, 7}[g.Intn(4)]
		owned := 0
		if g.Intn(5) == 0 {
			d, wild, parts = []int{2, 3, 4, 9}[g.Intn(4)], false, 1+g.Intn(2)
			owned = largeOwned[g.Intn(len(largeOwned))]
		}
		part := g.Intn(parts)
		if owned == 0 && g.Intn(20) == 0 {
			owned, parts, part = -1, 7, (PartitionOf(0, 7)+1)%7
		}
		planted := owned == 0 && g.Intn(4) == 0
		deep := planted && round%3 == 0
		flat := planted && round%3 == 1
		if planted {
			metric = Cosine // and exact and unfiltered (below): the tree's case
		}
		if deep || flat {
			wild, parts, part = false, 1, 0 // a tree over every row
		}
		ix, fx := index(d, wild, planted, deep, flat, metric, part, parts, owned)
		if owned != 0 && ix.OwnedCompanies() != max(owned, 0) {
			t.Fatalf("round %d: the prefix owns %d rows, want %d", round, ix.OwnedCompanies(), max(owned, 0))
		}
		c, reps, n := fx.c, fx.reps, fx.c.N()
		f := drawFilter(g, c)
		if g.Intn(3) == 0 || planted {
			f = Filter{} // the dense blocks only an unfiltered scan has
		}
		k := []int{1, 2, 10, 25, 40, scanBlock - 1, scanBlock + 1, n + 10}[g.Intn(8)]
		isOwned := func(i int) bool { return parts == 1 || PartitionOf(i, parts) == part }
		// layout: no pruner, even cells, or cells laid out around the answer.
		layout := g.Intn(8) - 3
		if owned < 0 && layout >= 0 {
			layout = 3 // cellsAround cuts cells of an eighth of the rows
		}
		if planted {
			layout = -1
		}
		// prune returns the round's index: ix itself, or a copy under a
		// full-probe pruner (every cell, every id), once top is known.
		prune := func(top []int) *Index {
			if layout < 0 {
				return ix
			}
			pruned := *ix
			if layout > 2 {
				pruned.SetPruner(newCellPruner(n, 7, 7))
			} else {
				pruned.SetPruner(cellsAround(g, n, k, top, layout))
			}
			return &pruned
		}
		desc := fmt.Sprintf("round %d: d=%d wild=%v planted=%v deep=%v flat=%v metric=%v rows=%d part=%d/%d layout=%d k=%d filter=%s",
			round, d, wild, planted, deep, flat, metric, n, part, parts, layout, k, f.Key())
		// handedOff draws an id of the flat fixture that lies past
		// 2·handOffRows in the tree's rows, so that the search hands its leaf
		// off: the least or the greatest of those ids, or any.
		handedOff := func() int {
			rows := ix.tree.rows[2*handOffRows:]
			switch g.Intn(3) {
			case 0:
				return int(slices.Min(rows))
			case 1:
				return int(slices.Max(rows))
			}
			return int(rows[g.Intn(len(rows))])
		}
		// handsOff fails the round unless call, a traced scan of the flat
		// fixture, read more rows than its search visits before it hands off.
		handsOff := func(name string, call func(ctx context.Context) error) {
			attrs := spanAttrs(t, name, call)
			if rows, _ := strconv.Atoi(attrs["rows_visited"]); rows < handOffRows+leafRows {
				t.Fatalf("%s: %s attributes %v, want rows_visited %d or more: nothing was handed off", desc, name, attrs, handOffRows+leafRows)
			}
		}

		if g.Intn(3) == 0 { // white-space
			maxClients := 2 * idSetListMax
			if owned > 0 {
				maxClients = 4 // the reference scores every row against every client
			}
			clients := make([]int, 1+g.Intn(maxClients))
			for ci := range clients {
				clients[ci] = g.Intn(n)
				if g.Intn(3) == 0 {
					clients[ci] = fx.anchors[g.Intn(len(fx.anchors))]
				}
			}
			switch {
			case flat:
				for ci := range clients {
					clients[ci] = handedOff()
				}
			case planted:
				clients[0] = fx.anchors[0]
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
				if !isOwned(i) || isClient[i] || !f.Admits(&c.Companies[i]) {
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
			top := make([]int, len(want))
			for r := range want {
				top[r] = want[r].CompanyID
			}
			ix := prune(top)
			for _, workers := range []int{1, 2, 4} {
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
			if flat {
				handsOff("core.whitespace", func(ctx context.Context) error {
					_, err := ix.WhitespaceContext(ctx, clients, k, f)
					return err
				})
			}
			continue
		}

		// top-k: by id (the query company is excluded) or by a free vector
		exclude, query := g.Intn(n), []float64(nil)
		switch g.Intn(3) {
		case 0:
			exclude, query = -1, drawQuery(g, reps, fx.anchors, wild)
		case 1:
			exclude = fx.anchors[g.Intn(len(fx.anchors))]
		}
		switch {
		case flat:
			exclude = handedOff()
		case planted:
			exclude = fx.anchors[0]
		}
		if exclude >= 0 {
			query = reps.Row(exclude)
		}
		var want []Match
		var admitted, rejected uint64
		for i := 0; i < n; i++ {
			if i == exclude || !isOwned(i) {
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
		top := make([]int, len(want))
		for r := range want {
			top[r] = want[r].CompanyID
		}
		ix = prune(top)
		for _, workers := range []int{1, 2, 4} {
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
				t.Fatalf("%s exclude=%d query=%v workers=%d: %d matches, want %d", desc, exclude, query, workers, len(got), len(want))
			}
			for r := range want {
				if got[r].CompanyID != want[r].CompanyID ||
					math.Float64bits(got[r].Similarity) != math.Float64bits(want[r].Similarity) {
					t.Fatalf("%s exclude=%d query=%v workers=%d rank %d: got %+v, want %+v", desc, exclude, query, workers, r, got[r], want[r])
				}
			}
		}
		if flat {
			handsOff("core.topk", func(ctx context.Context) error {
				_, err := ix.TopKContext(ctx, exclude, k, f)
				return err
			})
		}
	}
}

// FuzzRejectBound aims at the one way the floor test can be wrong — dropping
// a row the exact score would have kept. From fuzzed bits it builds a query
// vector, a one-row index and a floor (raw, or the row's own score moved by
// near ulps, to sit on the boundary), then checks the two halves of the
// lemma in DESIGN §13: the stage is consulted exactly when every stated
// precondition holds, and whenever it then drops the row, cosineSimilarity on
// the same operands is strictly below the floor. The seeds are the files of
// testdata/fuzz/FuzzRejectBound: raw is the query vector then the row,
// little-endian float64s.
func FuzzRejectBound(f *testing.F) {
	cat := corpus.DefaultCatalog()
	f.Fuzz(func(t *testing.T, raw []byte, floorBits uint64, near int8) {
		d := len(raw) / 16
		if d < 1 || d > 9 {
			return
		}
		vals := make([]float64, 2*d)
		for j := range vals {
			vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		}
		qv, row := vals[:d], vals[d:]
		c := corpus.New(cat, []corpus.Company{{ID: 0, Name: "row"}})
		ix, err := NewIndex(c, mat.FromSlice(1, d, row), Cosine)
		if err != nil {
			t.Fatal(err)
		}
		q := ix.newScan(1, Filter{}, [][]float64{qv}, []int{-1})
		qn, rn := mat.Norm2(qv), mat.Norm2(row)
		sim := cosineSimilarity(qv, row, qn, rn)
		floor := math.Float64frombits(floorBits)
		if near != 0 {
			floor = sim
			for step := 0; step < max(int(near), -int(near)); step++ {
				floor = math.Nextafter(floor, math.Inf(int(near)))
			}
		}
		inRange := func(v, lo, hi float64) bool { return lo <= v && v <= hi } // false for a NaN
		consulted := q.floorTest && floorInRange(floor)
		if want := inRange(qn, 0x1p-500, 0x1p+500) && (rn == 0 || inRange(rn, 0x1p-500, 0x1p+500)) &&
			inRange(floor, 0x1p-20, 0x1p+20); consulted != want {
			t.Fatalf("q=%v row=%v (norms %v, %v) floor=%v: floor test consulted=%v, preconditions hold=%v",
				qv, row, qn, rn, floor, consulted, want)
		}
		if !consulted {
			return
		}
		if kept := q.reject([]int{0}, floor); kept == 0 && !(sim < floor) {
			t.Fatalf("q=%v row=%v (norms %v, %v): dropped at floor %v, but the exact score is %v",
				qv, row, qn, rn, floor, sim)
		}
	})
}

// FuzzConeBound aims at the one way the cone tree can be wrong — a node whose
// bound is below a member's exact score, so that a search stops before a row
// it had to offer. From fuzzed bits it builds rows of dimension 1 + dim%9 and
// a query vector, then checks the two halves of the cone lemma in DESIGN §13:
// a scan takes the tree exactly when every stated precondition holds, and the
// bound of every node, slack included, is then at least cosineSimilarity of
// the query with every member. Below dim 128, raw is the query vector then
// 1–8 rows, little-endian float64s: the tree is one leaf. From dim 128 raw
// starts with a seed and a scale, little-endian: the seed draws more than
// leafRows rows (drawConeRows; topic mixtures only when the seed is even),
// each multiplied by the scale, and the query, so that the tree has inner
// nodes. The seeds are the files of testdata/fuzz/FuzzConeBound.
func FuzzConeBound(f *testing.F) {
	cat := corpus.DefaultCatalog()
	f.Fuzz(func(t *testing.T, raw []byte, dim uint8) {
		d := 1 + int(dim)%9
		var qv, rows []float64
		if dim < 128 {
			n := len(raw)/(8*d) - 1
			if n < 1 || n > 8 {
				return
			}
			vals := make([]float64, (n+1)*d)
			for j := range vals {
				vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
			}
			qv, rows = vals[:d], vals[d:]
		} else {
			if len(raw) < 16 {
				return
			}
			seed := binary.LittleEndian.Uint64(raw)
			scale := math.Float64frombits(binary.LittleEndian.Uint64(raw[8:]))
			g, simplex := rng.New(int64(seed>>1)), seed%2 == 0
			rows = drawConeRows(g, leafRows+1+int(seed%(4*leafRows)), d, scale, simplex)
			qv = make([]float64, d)
			switch {
			case g.Intn(2) == 0:
				copy(qv, rows[g.Intn(len(rows)/d)*d:])
			case simplex:
				qv = drawConeRows(g, 1, d, 1, true)
			default:
				for j := range qv {
					qv[j] = g.Float64() - 0.2
				}
			}
		}
		n := len(rows) / d
		companies := make([]corpus.Company, n)
		for i := range companies {
			companies[i] = corpus.Company{ID: i, Name: fmt.Sprint(i)}
		}
		ix, err := NewIndex(corpus.New(cat, companies), mat.FromSlice(n, d, rows), Cosine)
		if err != nil {
			t.Fatal(err)
		}
		q := ix.newScan(1, Filter{}, [][]float64{qv}, []int{-1})
		inRange := func(v float64) bool { return 0x1p-500 <= v && v <= 0x1p+500 } // false for a NaN
		want := inRange(mat.Norm2(qv))
		for i := 0; i < n; i++ {
			if rn := mat.Norm2(ix.Reps.Row(i)); rn != 0 && !inRange(rn) {
				want = false
			}
		}
		if q.leaves != want {
			t.Fatalf("q=%v rows=%v: the scan takes the tree: %v, preconditions hold: %v", qv, rows, q.leaves, want)
		}
		if !q.leaves {
			return
		}
		if nodes := len(ix.tree.nodes); n <= leafRows && nodes != 1 || n > leafRows && nodes < 3 {
			t.Fatalf("%d rows make %d nodes", n, nodes)
		}
		for nd, node := range ix.tree.nodes {
			bound := q.bound(uint32(nd))
			for _, i := range ix.tree.rows[node.lo:node.hi] {
				if s := cosineSimilarity(qv, ix.Reps.Row(int(i)), q.qnorms[0], ix.norms[i]); !(s <= bound) {
					t.Fatalf("q=%v node %d of %d, row %d (%v): bound %v (cone %v), but the exact score is %v",
						qv, nd, len(ix.tree.nodes), i, ix.Reps.Row(int(i)), bound, ix.tree.cones[nd*(d+2):(nd+1)*(d+2)], s)
				}
			}
		}
	})
}

// drawConeRows draws n rows of dimension d, multiplied by scale: topic
// mixtures, copies of an earlier row, one-ulp neighbours of one, mixtures
// with a zeroed coordinate, now and then a zero row, and unless simplex, rows
// of either sign and negations of an earlier one. Topic mixtures alone make
// narrow cones, which a bound built from too few rows fails.
func drawConeRows(g *rng.RNG, n, d int, scale float64, simplex bool) []float64 {
	rows := make([]float64, n*d)
	alpha := make([]float64, d)
	for j := range alpha {
		alpha[j] = 0.3
	}
	for i := 0; i < n; i++ {
		row, earlier := rows[i*d:(i+1)*d], rows[g.Intn(i+1)*d:]
		kind := g.Intn(10)
		if simplex && (kind == 3 || kind == 4 || kind == 7) {
			kind = 0
		}
		switch kind {
		case 0, 1, 2:
			g.DirichletTo(row, alpha)
		case 3, 4:
			for j := range row {
				row[j] = g.Float64() - 0.2
			}
		case 5:
			copy(row, earlier)
		case 6:
			copy(row, earlier)
			j := g.Intn(d)
			row[j] = math.Nextafter(row[j], math.Inf(2*g.Intn(2)-1))
		case 7:
			for j := range row {
				row[j] = -earlier[j]
			}
		case 8:
			if g.Intn(4) == 0 {
				break // a zero row
			}
			g.DirichletTo(row, alpha)
		case 9:
			g.DirichletTo(row, alpha)
			row[g.Intn(d)] = 0
		}
	}
	for j := range rows {
		rows[j] *= scale
	}
	return rows
}

// TestLeafStopRule pins the search's stop rule at its edge: a leaf whose
// bound equals the selection's floor is still visited, since a row there may
// tie the floor and win on its id. The tree is set by hand: a root, the whole
// sphere, over two leaves; the first holds company 1, scoring 1 against the
// query; the second holds company 0, the same row, under a made-up cone whose
// bound is exactly 1. The core.topk span counts both leaves and both rows
// visited.
func TestLeafStopRule(t *testing.T) {
	c, _ := scanFixture(2, 2, 1)
	ix, err := NewIndex(c, mat.FromSlice(2, 2, []float64{1, 0, 1, 0}), Cosine)
	if err != nil {
		t.Fatal(err)
	}
	ix.tree = tree{
		rows:  []uint32{1, 0},
		nodes: []node{{0, 2, 2}, {0, 1, 0}, {1, 2, 0}},
		// The root: c = 0, θ = π. Then c = (1, 0), θ = 0; then c = (0, 1),
		// cos θ = 2⁻¹⁰, sin θ = 1 − 2⁻²⁰: against (1, 0) that bound is
		// 0·2⁻¹⁰ + 1·(1 − 2⁻²⁰) + 2⁻²⁰ = 1.
		cones: []float64{0, 0, -1, 0, 1, 0, 1, 0, 0, 1, 0x1p-10, 1 - 0x1p-20},
	}
	var got []Match
	attrs := spanAttrs(t, "core.topk", func(ctx context.Context) (err error) {
		got, err = ix.TopKByVectorContext(ctx, []float64{1, 0}, 1, Filter{})
		return err
	})
	if len(got) != 1 || got[0].CompanyID != 0 || got[0].Similarity != 1 {
		t.Fatalf("top-1 %+v, want company 0 at 1: the row of the leaf whose bound ties the floor wins on its id", got)
	}
	if attrs["leaves_visited"] != "2" || attrs["rows_visited"] != "2" {
		t.Errorf("core.topk attributes %v, want leaves_visited 2 and rows_visited 2", attrs)
	}
}

// TestTreeShape checks the cone tree's structure over the owned rows of a
// fixture, unpartitioned and as each third of three: the nodes are in
// preorder, every node but the root is the child of one node, and a node's
// two children hold its first and second half, so that each node's rows are
// its children's; a leaf
// holds 1 to leafRows rows, ascending; every owned id is in one leaf; and the
// node arrays are bit-equal when built at one worker and at four. The
// fixture has 1024·leafRows + 50 rows, enough for the build to run in several
// tasks, so that unpartitioned its leaves lie at two depths (50 parts of
// leafRows+1 rows split where 974 of leafRows do not), and a few zero rows,
// which make their nodes the whole sphere.
func TestTreeShape(t *testing.T) {
	// leaves counts the leaves of a node of rows rows.
	var leaves func(rows uint32) uint32
	leaves = func(rows uint32) uint32 {
		if rows <= leafRows {
			return 1
		}
		return leaves(rows/2) + leaves(rows-rows/2)
	}
	defer par.SetWorkers(0)
	c, reps := scanFixture(1024*leafRows+50, 4, 3)
	for _, i := range []int{5, 9000, 20000} {
		clear(reps.Row(i))
	}
	for _, parts := range []int{1, 3} {
		for part := 0; part < parts; part++ {
			build := func(workers int) tree {
				par.SetWorkers(workers)
				ix, err := NewIndex(c, reps, Cosine)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.SetPartition(part, parts); err != nil {
					t.Fatal(err)
				}
				return ix.tree
			}
			tr, tr4 := build(1), build(4)
			cones := func(tr tree) []uint64 {
				bits := make([]uint64, len(tr.cones))
				for j, v := range tr.cones {
					bits[j] = math.Float64bits(v)
				}
				return bits
			}
			if !slices.Equal(tr.rows, tr4.rows) || !slices.Equal(tr.nodes, tr4.nodes) || !slices.Equal(cones(tr), cones(tr4)) {
				t.Fatalf("part %d/%d: the tree differs between workers=1 and workers=4", part, parts)
			}
			var owned int
			for i := 0; i < c.N(); i++ {
				if PartitionOf(i, parts) == part {
					owned++
				}
			}
			if len(tr.rows) != owned || len(tr.nodes) == 0 || tr.nodes[0].lo != 0 || int(tr.nodes[0].hi) != owned {
				t.Fatalf("part %d/%d: %d rows, root %+v, for %d owned ids", part, parts, len(tr.rows), tr.nodes[0], owned)
			}
			parents := make([]int, len(tr.nodes))
			seen := make([]bool, c.N())
			for nd, n := range tr.nodes {
				if n.right == 0 {
					leaf := tr.rows[n.lo:n.hi]
					if len(leaf) < 1 || len(leaf) > leafRows {
						t.Fatalf("part %d/%d: leaf %d holds %d rows", part, parts, nd, len(leaf))
					}
					for j, id := range leaf {
						if j > 0 && leaf[j-1] >= id {
							t.Fatalf("part %d/%d: leaf %d does not ascend at %d: %v", part, parts, nd, j, leaf)
						}
						if PartitionOf(int(id), parts) != part || seen[id] {
							t.Fatalf("part %d/%d: leaf %d holds id %d, owned %v, seen before %v",
								part, parts, nd, id, PartitionOf(int(id), parts) == part, seen[id])
						}
						seen[id] = true
					}
					continue
				}
				// Preorder: the first child follows its parent, and the second
				// follows the first's subtree, which holds 2·leaves − 1 nodes.
				if left := (n.hi - n.lo) / 2; int(n.right) >= len(tr.nodes) ||
					n.right != uint32(nd)+1+2*leaves(left)-1 {
					t.Fatalf("part %d/%d: node %d %+v has its second child at %d of %d nodes", part, parts, nd, n, n.right, len(tr.nodes))
				}
				a, b := tr.nodes[nd+1], tr.nodes[n.right]
				if a.lo != n.lo || a.hi != b.lo || b.hi != n.hi || a.hi-a.lo != (n.hi-n.lo)/2 {
					t.Fatalf("part %d/%d: node %d %+v has children %+v and %+v", part, parts, nd, n, a, b)
				}
				parents[nd+1]++
				parents[n.right]++
			}
			for nd, p := range parents {
				if want := min(nd, 1); p != want {
					t.Fatalf("part %d/%d: node %d is the child of %d nodes, want %d", part, parts, nd, p, want)
				}
			}
			t.Logf("part %d/%d: %d rows, %d nodes", part, parts, owned, len(tr.nodes))
		}
	}
}

// countdownCtx is a context whose Err turns non-nil after a set number of
// calls: a deadline that expires at a known point inside a scan.
type countdownCtx struct {
	context.Context
	calls, after atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

// TestScanHonoursDeadlineInsideShard pins the deadline check inside the
// candidate loop: a context that expires after N looks stops visit at once —
// one more look, no further rows than the groups of blocks gone through — and
// a white-space query cut short this way counts as an error, not as served.
// Every row is a scaled copy of one direction, so no leaf's bound can fall
// below a floor and the white-space scan visits every leaf, looking at its
// context every ctxCheckBlocks leaves. A scan the leaves do prune honours an
// expiring context too, before the first task after the best leaf.
func TestScanHonoursDeadlineInsideShard(t *testing.T) {
	const group = scanBlock * ctxCheckBlocks
	const n = 5*group + 100
	c, reps := scanFixture(n, 2, 3)
	prunable, err := NewIndex(c, reps, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	flat := mat.New(n, 2)
	for i := 0; i < n; i++ {
		flat.Row(i)[0], flat.Row(i)[1] = float64(1+i%5), float64(2+2*(i%5))
	}
	ix, err := NewIndex(c, flat, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	reps = flat
	q := ix.newScan(5, Filter{}, [][]float64{reps.Row(0)}, []int{0})
	for _, after := range []int64{0, 1, 3} {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.after.Store(after)
		o := q.newSelection(n)
		err := q.visit(ctx, o, nil, 0, n, false)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expiry after %d looks: visit returned %v", after, err)
		}
		if got := ctx.calls.Load(); got != after+1 {
			t.Errorf("expiry after %d looks: visit looked %d times", after, got)
		}
		// The look that fails comes before block (after+1)*ctxCheckBlocks.
		if rows := uint64(after+1)*group - scanBlock; o.admitted > rows {
			t.Errorf("expiry after %d looks: %d rows admitted, the scan should have stopped within %d", after, o.admitted, rows)
		}
	}
	if err := q.visit(context.Background(), q.newSelection(n), nil, 0, n, false); err != nil {
		t.Fatal(err)
	}

	defer par.SetWorkers(0)
	par.SetWorkers(1) // four shards, each longer than one group
	counter := func(name string) uint64 { return obs.Default().Counter(name, "").Value() }
	ws0, wsErr0 := counter("whitespace_requests_total"), counter("whitespace_errors_total")
	ctx := &countdownCtx{Context: context.Background()}
	ctx.after.Store(1) // par's look before the first shard passes; the one inside it does not
	if _, err := ix.WhitespaceContext(ctx, []int{1, 2, 3}, 5, Filter{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("white-space under an expiring context returned %v", err)
	}
	if got := ctx.calls.Load(); got != 2 {
		t.Errorf("white-space looked at its context %d times, want 2: the first shard ran to its end", got)
	}
	if got := counter("whitespace_requests_total"); got != ws0 {
		t.Errorf("a white-space query cut short counted as served (%d -> %d)", ws0, got)
	}
	if got := counter("whitespace_errors_total"); got != wsErr0+1 {
		t.Errorf("whitespace_errors_total %d, want %d", got, wsErr0+1)
	}

	if q := prunable.newScan(5, Filter{}, [][]float64{reps.Row(0)}, []int{0}); !q.leaves {
		t.Fatal("an unfiltered cosine scan does not take the leaves")
	}
	topkErr0 := counter("topk_errors_total")
	ctx = &countdownCtx{Context: context.Background()}
	if _, err := prunable.TopKContext(ctx, 7, 10, Filter{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leaf-path top-k under an expired context returned %v", err)
	}
	if got := counter("topk_errors_total"); got != topkErr0+1 {
		t.Errorf("topk_errors_total %d, want %d", got, topkErr0+1)
	}
	ctx = &countdownCtx{Context: context.Background()}
	if _, err := prunable.WhitespaceContext(ctx, []int{1, 2, 3}, 5, Filter{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leaf-path white-space under an expired context returned %v", err)
	}
}

// TestFanoutRule answers the same exact and pruned queries on a fixture
// below minFanoutRows and on one above it: however many workers run takes,
// the answers at one worker and at four are gob-identical, and a cancelled
// context surfaces on the calling goroutine as it does from par's.
func TestFanoutRule(t *testing.T) {
	defer par.SetWorkers(0)
	for _, n := range []int{minFanoutRows / 4, 2 * minFanoutRows} {
		c, reps := scanFixture(n, 4, int64(n))
		exact, err := NewIndex(c, reps, Cosine)
		if err != nil {
			t.Fatal(err)
		}
		pruned := *exact
		pruned.SetPruner(newCellPruner(n, 40, 30)) // three quarters of the rows: the pool is on n's side of the line
		for name, ix := range map[string]*Index{"exact": exact, "pruned": &pruned} {
			answers := func(workers int) []byte {
				par.SetWorkers(workers)
				m, err := ix.TopK(n/3, 25, Filter{Country: "C4"})
				if err != nil {
					t.Fatal(err)
				}
				p, err := ix.Whitespace([]int{1, n / 2, n - 1}, 300, Filter{})
				if err != nil {
					t.Fatal(err)
				}
				return append(mustGob(t, m), mustGob(t, p)...)
			}
			if !bytes.Equal(answers(1), answers(4)) {
				t.Errorf("n=%d %s: answers differ between workers=1 and workers=4", n, name)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := ix.TopKContext(ctx, 0, 5, Filter{}); !errors.Is(err, context.Canceled) {
				t.Errorf("n=%d %s: cancelled top-k returned %v", n, name, err)
			}
		}
	}
}

// TestUntracedScanStartsNoTrace pins the guard on the par.shard spans: with
// the default tracer enabled, a scan whose context carries no span — on
// either side of minFanoutRows — must not root a trace per task.
func TestUntracedScanStartsNoTrace(t *testing.T) {
	trace.Default().SetEnabled(true)
	defer trace.Default().SetEnabled(false)
	started := obs.Default().Counter("trace_traces_started_total", "")
	for _, n := range []int{300, 2 * minFanoutRows} {
		c, reps := scanFixture(n, 4, 9)
		ix, err := NewIndex(c, reps, Cosine)
		if err != nil {
			t.Fatal(err)
		}
		before := started.Value()
		q := ix.newScan(5, Filter{}, [][]float64{reps.Row(0)}, []int{0})
		if _, _, _, err := q.run(context.Background(), nil, annTopkQueries, annTopkCandidates); err != nil {
			t.Fatal(err)
		}
		if got := started.Value() - before; got != 0 {
			t.Errorf("n=%d: an untraced scan started %d traces", n, got)
		}
	}
}
