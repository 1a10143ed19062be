package core

import (
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
// the two equality columns the same way, on an index with trees and on one
// with none (a row's norm is out of the floor test's range), unpartitioned and
// as each third of three: each list holds only ids of its code, ascending when
// no tree is built, and the lists of a column hold every owned id once; the
// rows an exact scan may visit (a list's tree, a list, or every owned row) are
// owned, each once, and those it admits are exactly the owned rows
// Filter.Admits admits, for a query vector a tree covers and for the zero
// vector, which none does. Going back to one partition restores the lists
// NewIndex built.
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
		t.Logf("%+v admits %d of %d", f, admitted, c.N())
	}

	wild := mat.New(c.N(), 2)
	wild.Row(7)[0] = 0x1p+600
	for _, reps := range []*mat.Matrix{mat.New(c.N(), 2), wild} {
		full, err := NewIndex(c, reps, Cosine)
		if err != nil {
			t.Fatal(err)
		}
		trees := reps != wild
		if got := len(full.tree.nodes) > 0; got != trees {
			t.Fatalf("the index builds trees: %v, want %v", got, trees)
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
					held := make([]bool, c.N())
					for code := range len(col.lists.start) - 1 {
						list := col.lists.of(uint32(code))
						if !trees && !slices.IsSorted(list) {
							t.Fatalf("part %d/%d: %s list of code %d does not ascend on an index with no tree: %v", part, parts, col.name, code, list)
						}
						for _, id := range list {
							if col.codes[id] != uint32(code) || !owned(int(id)) || held[id] {
								t.Fatalf("part %d/%d: %s list of code %d holds id %d (code %d, owned %v, listed before %v)",
									part, parts, col.name, code, id, col.codes[id], owned(int(id)), held[id])
							}
							held[id] = true
						}
					}
					for i, ok := range held {
						if ok != owned(i) {
							t.Fatalf("part %d/%d: %s lists hold id %d: %v, it is owned: %v", part, parts, col.name, i, ok, owned(i))
						}
					}
				}
				for _, f := range filters {
					for _, qv := range [][]float64{{1, 2}, {0, 0}} {
						q := ix.newScan(1, f, [][]float64{qv}, []int{-1})
						walked := listed(q)
						// Only an empty list has no tree to search.
						if q.leaves != (trees && qv[0] != 0 && len(walked) > 0) {
							t.Fatalf("part %d/%d filter %+v query %v: the scan searches a tree: %v", part, parts, f, qv, q.leaves)
						}
						var got, want []int
						seen := make([]bool, c.N())
						for _, id := range walked {
							if !owned(int(id)) || seen[id] {
								t.Fatalf("part %d/%d filter %+v query %v: the scan may visit id %d, owned %v, listed before %v",
									part, parts, f, qv, id, owned(int(id)), seen[id])
							}
							seen[id] = true
							if !q.filtered || q.filter.admits(int(id)) {
								got = append(got, int(id))
							}
						}
						slices.Sort(got)
						for i := range c.Companies {
							if owned(i) && f.Admits(&c.Companies[i]) {
								want = append(want, i)
							}
						}
						if !slices.Equal(got, want) {
							t.Fatalf("part %d/%d filter %+v query %v: the scan admits %d rows, Filter.Admits %d: %v, want %v",
								part, parts, f, qv, len(got), len(want), got, want)
						}
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
}

// listed returns the ids an exact scan may visit, in its order: the rows
// under its tree's root, its list, or every id.
func listed(q *scan) []uint32 {
	switch {
	case q.leaves:
		root := q.tree.nodes[q.root]
		return q.tree.rows[root.lo:root.hi]
	case q.rows != nil:
		return q.rows
	}
	all := make([]uint32, q.ix.Corpus.N())
	for i := range all {
		all[i] = uint32(i)
	}
	return all
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
	f, err := snapshot.Map(path)
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
// among the first largeChunk-1 rows: every prefix a test scans holds them all.
func diffFixture(n, d int, seed int64, wild bool) (*corpus.Corpus, *mat.Matrix, []int) {
	c, reps := scanFixture(n, d, seed)
	g := rng.New(seed + 1)
	anchors := make([]int, 6)
	for a := range anchors {
		anchors[a] = g.Intn(min(n, largeChunk-1))
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

// largeChunk is the unit of TestScanDifferential's large fixtures, as many
// rows as a scan goes through between two looks at its context: their prefixes
// own about one, two or three of it.
const largeChunk = scanBlock * ctxCheckBlocks

// plantBoundaries puts relatives of the anchors either side of the owned
// positions one and two largeChunks in, so that an anchor query's floor is tied
// across rows far apart: at owned positions b-1 and b a copy of an anchor; at
// b-2 and b+1 its math.Nextafter neighbours. The positions are resolved for
// each view the test scans the fixture through — unpartitioned and either
// half of two — one anchor per boundary.
func plantBoundaries(reps *mat.Matrix, anchors []int) {
	views := make([][]int, 3) // every id, the ids of 0/2, the ids of 1/2
	for i := 0; i < reps.Rows; i++ {
		views[0] = append(views[0], i)
		views[1+PartitionOf(i, 2)] = append(views[1+PartitionOf(i, 2)], i)
	}
	site := 0
	for _, owned := range views {
		for _, b := range []int{largeChunk, 2 * largeChunk} {
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

// TestScanDifferential is the seeded differential test of the scan driver and
// its candidate loop: over drawn (dimension, size, partition, pruner, filter,
// k, query) tuples, at one, two and four workers, TopK / TopKByVectorContext /
// Whitespace must equal a naive reference — mat.CosineSim over Filter.Admits
// survivors, fully sorted — bit for bit. The top-k candidate counters count the
// rows admit tested: a search's admitted is at least the matches it returns and
// at most the reference's, and its admitted plus filtered is the core.topk
// span's rows_visited less the query's own id when the search reached it; a
// scan that visits its whole list (no tree, or a query vector no cone covers)
// admits what the reference does, and a full-probe pruned scan tallies
// exactly what the reference counted. Dimensions 1 to 9 cover the widths the
// floor test unrolls and the ones it loops over; k reaches from 1 past the
// block size to more than there are rows.
//
// Most rounds scan a fixture of some 3000 rows. An exact scan searches a cone
// tree best bound first — the index's, or that of the list of the filter's
// shorter equality field — whatever the filter, leaving the rest of it to the
// row-by-row test and the nodes' zones; over a wild fixture, which has no
// tree, or for the zero query vector, it visits its rows in one pass. Under a
// pruner it visits every cell, all offered to one selection; the pruner has
// seven even cells or is laid out around the round's own answer
// (cellsAround). One round in four of the unfiltered exact ones over a small
// fixture is a scan of one that holds more exact copies of an anchor than a
// leaf holds, querying that anchor, so that the k-th place is tied across
// leaves (plantCopies). Every other such round is the deep-tree arm: a fixture
// of 5·leafRows+7 rows, a tree four levels deep, more than half of whose rows
// are those copies, so that the tie straddles the root's two subtrees. The
// third of them is the unprunable arm: a fixture of 2·largeChunk+77 rows no
// cone can prune (flatten), whose search reads leaf after leaf; it queries ids
// past the first quarter of the tree's rows — the least or greatest of them,
// which lie outside the ends of a block that spans leaves, or any — and a
// traced call shows that the search read at least half the rows. One round in
// five scans a prefix of a large fixture that owns largeChunk-1, largeChunk or
// largeChunk+1 rows, or two chunks and a ragged third, unpartitioned or as
// half of two, with tied rows planted at the chunk boundaries
// (plantBoundaries). A few rounds scan a partition that owns no row at all.
// The list arm (testListTrees) plants ties inside the lists and inside a range
// bound.
func TestScanDifferential(t *testing.T) {
	const rounds = 600
	g := rng.New(4242)
	defer par.SetWorkers(0)

	type fixture struct {
		c       *corpus.Corpus
		reps    *mat.Matrix
		anchors []int
	}
	largeOwned := []int{largeChunk - 1, largeChunk, largeChunk + 1, 2*largeChunk + 3*scanBlock - 19}
	fixtures := make(map[string]fixture)
	indexes := make(map[string]*Index)
	// index returns the index of a round and the fixture it is over. owned is
	// 0 for a small fixture, scanned whole, and -1 for its first row, which the
	// partition does not own; otherwise the index is over the shortest prefix
	// of a large fixture of which the partition owns that many rows (built per
	// round: a cache of those would hold too much).
	index := func(d int, wild, planted, deep, unprunable bool, part, parts, owned int) (*Index, fixture) {
		fkey := fmt.Sprintf("%d/%v/%v/%v/%v/%v", d, wild, planted, deep, unprunable, owned > 0)
		fx, ok := fixtures[fkey]
		if !ok {
			n := 3*4*scanBlock - 50 - 13*d // ragged at every cell count used
			switch {
			case owned > 0:
				n = 2*largeOwned[len(largeOwned)-1] + 2000
			case deep:
				n = 5*leafRows + 7
			case unprunable:
				n = 2*largeChunk + 77
			}
			fx.c, fx.reps, fx.anchors = diffFixture(n, d, int64(42+d), wild)
			switch {
			case unprunable:
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
		key := fmt.Sprintf("%s/%d/%d", fkey, part, parts)
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
		ix, err := NewIndex(fx.c, fx.reps, Cosine)
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
		if deep {
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
		unprunable := planted && round%3 == 1
		if deep || unprunable {
			wild, parts, part = false, 1, 0 // a tree over every row
		}
		ix, fx := index(d, wild, planted, deep, unprunable, part, parts, owned)
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
		desc := fmt.Sprintf("round %d: d=%d wild=%v planted=%v deep=%v unprunable=%v rows=%d part=%d/%d layout=%d k=%d filter=%+v",
			round, d, wild, planted, deep, unprunable, n, part, parts, layout, k, f)
		// deepID draws an id of the unprunable fixture that lies past the
		// first quarter of the tree's rows, so that the search reaches its leaf
		// only after many others: the least or the greatest of those ids, which
		// lie outside the ends of any block that spans leaves, or any.
		deepID := func() int {
			rows := ix.tree.rows[len(ix.tree.rows)/4:]
			switch g.Intn(3) {
			case 0:
				return int(slices.Min(rows))
			case 1:
				return int(slices.Max(rows))
			}
			return int(rows[g.Intn(len(rows))])
		}
		// readsDeep fails the round unless call, a traced scan of the
		// unprunable fixture, read at least half of its rows.
		readsDeep := func(name string, call func(ctx context.Context) error) {
			attrs := spanAttrs(t, name, call)
			if rows, _ := strconv.Atoi(attrs["rows_visited"]); rows < n/2 {
				t.Fatalf("%s: %s attributes %v, want rows_visited %d or more: the search stopped short of the deep leaves", desc, name, attrs, n/2)
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
			case unprunable:
				for ci := range clients {
					clients[ci] = deepID()
				}
			case planted:
				clients[0] = fx.anchors[0]
			}
			if len(clients) > 2 {
				clients[len(clients)-1] = clients[0] // a duplicate
			}
			want := referenceWhitespace(c, reps, isOwned, f, clients, k)
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
			if unprunable {
				readsDeep("core.whitespace", func(ctx context.Context) error {
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
		case unprunable:
			exclude = deepID()
		case planted:
			exclude = fx.anchors[0]
		}
		if exclude >= 0 {
			query = reps.Row(exclude)
		}
		want, admitted, rejected := referenceTopK(c, reps, isOwned, f, query, exclude, k)
		top := make([]int, len(want))
		for r := range want {
			top[r] = want[r].CompanyID
		}
		ix = prune(top)
		q := ix.newScan(k, f, [][]float64{query}, []int{exclude})
		own := ownOnList(q, exclude)
		for _, workers := range []int{1, 2, 4} {
			par.SetWorkers(workers)
			got, da, dr, visited := tracedTopK(t, desc, ix, exclude, query, k, f)
			if !talliesHold(q, len(got), da, dr, visited, own, admitted, rejected) {
				t.Fatalf("%s exclude=%d workers=%d search=%v: counters moved by admitted=%d filtered=%d over %d rows visited (own id listed: %d); the reference admitted %d and refused %d",
					desc, exclude, workers, q.leaves, da, dr, visited, own, admitted, rejected)
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
		if unprunable {
			readsDeep("core.topk", func(ctx context.Context) error {
				_, err := ix.TopKContext(ctx, exclude, k, f)
				return err
			})
		}
	}
	t.Run("lists", testListTrees)
}

// testListTrees is TestScanDifferential's list arm: the planted-ties fixture
// inside the candidate lists. Of the rows of one country and of one industry,
// neither the first anchor's own, seven in ten are made exact copies of that
// anchor, so that each list's tree, on every partition, holds copies on both
// sides of its root, and a query at the anchor ties its k-th place across
// them. Unpartitioned and as each part of two and of three, at one, two and
// four workers, a top-k by the anchor (off the list), by a copy (on it) and
// by the anchor's vector, and a white-space query from both, must equal the
// reference bit for bit and move the candidate counters as talliesHold says,
// filtered by the list's field alone, with a range bound that refuses nothing,
// and with one at the median employees of the list's copies, which admits
// about half of the tied copies and leaves the other half to the row-by-row
// test and the nodes' zones. Each of them searches the list's tree.
func testListTrees(t *testing.T) {
	defer par.SetWorkers(0)
	for _, d := range []int{2, 4, 9} {
		c, reps, anchors := diffFixture(3*4*scanBlock, d, int64(60+d), false)
		a := anchors[0]
		var country string
		var sic2 int
		for _, co := range c.Companies {
			if country == "" && co.Country != c.Companies[a].Country {
				country = co.Country
			}
			if sic2 == 0 && co.SIC2 != c.Companies[a].SIC2 {
				sic2 = co.SIC2
			}
		}
		g := rng.New(int64(d))
		for i, co := range c.Companies {
			if (co.Country == country || co.SIC2 == sic2) && !slices.Contains(anchors, i) && g.Intn(10) < 7 {
				copy(reps.Row(i), reps.Row(a))
			}
		}
		isCopy := func(id uint32) bool { return int(id) != a && slices.Equal(reps.Row(int(id)), reps.Row(a)) }
		for _, parts := range []int{1, 2, 3} {
			for part := 0; part < parts; part++ {
				ix, err := NewShardIndex(c, reps, Cosine, part, parts)
				if err != nil {
					t.Fatal(err)
				}
				owns := func(i int) bool { return PartitionOf(i, parts) == part }
				for _, lf := range []Filter{{Country: country}, {SIC2: sic2}} {
					desc := fmt.Sprintf("d=%d part %d/%d filter %+v", d, part, parts, lf)
					q := ix.newScan(1, lf, [][]float64{reps.Row(a)}, []int{a})
					if !q.leaves {
						t.Fatalf("%s: the scan does not search the list's tree", desc)
					}
					root := q.tree.nodes[q.root]
					copies := func(nd uint32) bool {
						n := q.tree.nodes[nd]
						return slices.ContainsFunc(q.tree.rows[n.lo:n.hi], isCopy)
					}
					if root.right == 0 || !copies(q.root+1) || !copies(root.right) {
						t.Fatalf("%s: the list's tree %+v does not hold copies of the anchor on both sides of its root", desc, root)
					}
					list := q.tree.rows[root.lo:root.hi]
					onList := list[slices.IndexFunc(list, isCopy)]
					var employees []int
					for _, id := range list {
						if isCopy(id) {
							employees = append(employees, c.Companies[id].Employees)
						}
					}
					slices.Sort(employees)
					open, ranged := lf, lf
					open.MinEmployees = math.MinInt // refuses nothing, yet the list no longer answers the filter
					ranged.MinEmployees = employees[len(employees)/2]
					for _, f := range []Filter{lf, open, ranged} {
						if q := ix.newScan(1, f, [][]float64{reps.Row(a)}, []int{a}); !q.leaves || q.tree != &ix.bySIC2.tree && q.tree != &ix.byCountry.tree {
							t.Fatalf("%s as %+v: the scan does not search the list's tree", desc, f)
						}
						for _, k := range []int{1, 25, 400} {
							for _, exclude := range []int{a, int(onList), -1} {
								want, admitted, rejected := referenceTopK(c, reps, owns, f, reps.Row(a), exclude, k)
								q := ix.newScan(k, f, [][]float64{reps.Row(a)}, []int{exclude})
								own := ownOnList(q, exclude)
								for _, workers := range []int{1, 2, 4} {
									par.SetWorkers(workers)
									got, da, dr, visited := tracedTopK(t, desc, ix, exclude, reps.Row(a), k, f)
									what := fmt.Sprintf("%s k=%d exclude=%d as %+v workers=%d", desc, k, exclude, f, workers)
									if !talliesHold(q, len(got), da, dr, visited, own, admitted, rejected) {
										t.Fatalf("%s: counters moved by admitted=%d filtered=%d over %d rows visited (own id listed: %d); the reference admitted %d and refused %d",
											what, da, dr, visited, own, admitted, rejected)
									}
									if !slices.EqualFunc(got, want, func(x, y Match) bool {
										return x.CompanyID == y.CompanyID && math.Float64bits(x.Similarity) == math.Float64bits(y.Similarity)
									}) {
										t.Fatalf("%s: got %+v, want %+v", what, got, want)
									}
								}
							}
							clients := []int{a, int(onList), anchors[1]}
							want := referenceWhitespace(c, reps, owns, f, clients, k)
							for _, workers := range []int{1, 2, 4} {
								par.SetWorkers(workers)
								got, err := ix.Whitespace(clients, k, f)
								if err != nil {
									t.Fatal(err)
								}
								if !slices.EqualFunc(got, want, func(x, y WhitespaceProspect) bool {
									return x.CompanyID == y.CompanyID && x.NearestClient == y.NearestClient &&
										math.Float64bits(x.Similarity) == math.Float64bits(y.Similarity)
								}) {
									t.Fatalf("%s k=%d clients=%v as %+v workers=%d: got %+v, want %+v", desc, k, clients, f, workers, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// tracedTopK runs a top-k through ix under a trace — by id, or by query when
// exclude is -1 — and returns its matches, how far it moved the candidate
// counters, and the rows_visited of its core.topk span.
func tracedTopK(t *testing.T, desc string, ix *Index, exclude int, query []float64, k int, f Filter) (got []Match, admitted, filtered, visited uint64) {
	t.Helper()
	admitted0, filtered0 := topkAdmitted.Value(), topkFiltered.Value()
	attrs := spanAttrs(t, "core.topk", func(ctx context.Context) (err error) {
		if exclude >= 0 {
			got, err = ix.TopKContext(ctx, exclude, k, f)
		} else {
			got, err = ix.TopKByVectorContext(ctx, query, k, f)
		}
		if err != nil {
			return fmt.Errorf("%s exclude=%d k=%d filter %+v: %w", desc, exclude, k, f, err)
		}
		return nil
	})
	visited, _ = strconv.ParseUint(attrs["rows_visited"], 10, 64)
	return got, topkAdmitted.Value() - admitted0, topkFiltered.Value() - filtered0, visited
}

// ownOnList is 1 when the query's own id, exclude, is a row exact scan q may
// visit — one admit skips without counting it either way — and 0 otherwise.
func ownOnList(q *scan, exclude int) uint64 {
	if q.ix.pruner == nil && exclude >= 0 && slices.Contains(listed(q), uint32(exclude)) {
		return 1
	}
	return 0
}

// talliesHold is the candidate counters' contract for top-k scan q, which
// returned got matches and moved the counters by admitted and filtered over
// visited rows (its span's rows_visited), own of them its own id (ownOnList):
// they count the rows admit tested. A search admits at least what it returns
// and at most what the reference admitted, and what it tested is what it
// visited less its own id if it reached it; a scan of its whole list admits
// what the reference admitted; a full-probe pruned scan tallies exactly what
// the reference counted.
func talliesHold(q *scan, got int, admitted, filtered, visited, own, refAdmitted, refRejected uint64) bool {
	switch {
	case q.ix.pruner != nil:
		return admitted == refAdmitted && filtered == refRejected
	case q.leaves:
		return admitted >= uint64(got) && admitted <= refAdmitted && admitted+filtered <= visited && admitted+filtered+own >= visited
	}
	return admitted == refAdmitted && admitted+filtered+own == visited
}

// referenceTopK is the differential tests' naive top-k: mat.CosineSim over
// the owned rows Filter.Admits, but for exclude, fully sorted, with the
// admitted and refused rows counted.
func referenceTopK(c *corpus.Corpus, reps *mat.Matrix, owns func(int) bool, f Filter, query []float64, exclude, k int) (want []Match, admitted, rejected uint64) {
	for i := 0; i < c.N(); i++ {
		if i == exclude || !owns(i) {
			continue
		}
		if !f.Admits(&c.Companies[i]) {
			rejected++
			continue
		}
		admitted++
		want = append(want, Match{CompanyID: i, Similarity: mat.CosineSim(query, reps.Row(i))})
	}
	sort.Slice(want, func(a, b int) bool { return MatchBetter(want[a], want[b]) })
	return want[:min(k, len(want))], admitted, rejected
}

// referenceWhitespace is the differential tests' naive white-space query:
// every owned non-client row Filter.Admits, at its nearest client (the first
// on ties), fully sorted.
func referenceWhitespace(c *corpus.Corpus, reps *mat.Matrix, owns func(int) bool, f Filter, clients []int, k int) []WhitespaceProspect {
	var want []WhitespaceProspect
	for i := 0; i < c.N(); i++ {
		if !owns(i) || slices.Contains(clients, i) || !f.Admits(&c.Companies[i]) {
			continue
		}
		p := WhitespaceProspect{CompanyID: i, NearestClient: -1, Similarity: math.Inf(-1)}
		for _, id := range clients {
			if sim := mat.CosineSim(reps.Row(id), reps.Row(i)); sim > p.Similarity {
				p.Similarity, p.NearestClient = sim, id
			}
		}
		want = append(want, p)
	}
	sort.Slice(want, func(a, b int) bool { return ProspectBetter(want[a], want[b]) })
	return want[:min(k, len(want))]
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

// FuzzZoneBound aims at the one way a zone map can be wrong — a node the
// search skips for a range bound although one of its rows passes the filter.
// From fuzzed bits it builds companies, 12 bytes of raw each, little-endian:
// employees (an int32) and revenue (float64 bits, NaN and infinities among
// them); their rows fall in seven directions, so that over more than leafRows
// companies the trees have inner nodes. The filter is two employee and two
// revenue bounds. For every node of every tree the index builds — over all
// rows, and over each SIC2 and country list — that the zone test refuses, no
// row passes Filter.Admits.
func FuzzZoneBound(f *testing.F) {
	cat := corpus.DefaultCatalog()
	rows := func(n int, emp func(i int) int32, rev func(i int) float64) []byte {
		raw := make([]byte, 12*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(raw[12*i:], uint32(emp(i)))
			binary.LittleEndian.PutUint64(raw[12*i+4:], math.Float64bits(rev(i)))
		}
		return raw
	}
	one := rows(1, func(int) int32 { return 100 }, func(int) float64 { return 5 })
	f.Add(one, 100, 0, 0.0, 0.0) // each bound on the one row's value
	f.Add(one, 0, 100, 0.0, 0.0)
	f.Add(one, 0, 0, 5.0, 0.0)
	f.Add(one, 0, 0, 0.0, 5.0)
	f.Add(one, 0, 0, math.NaN(), 0.0)
	nan := rows(3*leafRows, func(i int) int32 { return int32(i % 7 * 10) }, func(i int) float64 {
		if i%11 == 0 {
			return math.NaN()
		}
		return float64(i % 7)
	})
	f.Add(nan, 0, 0, 6.0, 0.0) // a NaN revenue passes every revenue bound
	f.Add(nan, 0, 0, 0.0, -1.0)
	f.Add(nan, 30, 40, 0.0, 0.0)
	f.Add(nan, 60, 0, math.Inf(1), 0.0)
	f.Add(rows(4*leafRows, func(i int) int32 { return int32(i%7*1000 - 3000) }, func(i int) float64 {
		return []float64{math.Inf(-1), -0.0, 1, math.Inf(1)}[i%4]
	}), -3000, 0, 0.0, math.Inf(-1))
	f.Fuzz(func(t *testing.T, raw []byte, minE, maxE int, minR, maxR float64) {
		n := len(raw) / 12
		if n < 1 || n > 8*leafRows {
			return
		}
		companies := make([]corpus.Company, n)
		reps := mat.New(n, 2)
		for i := range companies {
			companies[i] = corpus.Company{ID: i, Name: fmt.Sprint(i), SIC2: 70 + i%3, Country: fmt.Sprint("C", i%2),
				Employees: int(int32(binary.LittleEndian.Uint32(raw[12*i:]))),
				RevenueM:  math.Float64frombits(binary.LittleEndian.Uint64(raw[12*i+4:]))}
			reps.Row(i)[0], reps.Row(i)[1] = float64(1+i%7), float64(7-i%7)
		}
		ix, err := NewIndex(corpus.New(cat, companies), reps, Cosine)
		if err != nil {
			t.Fatal(err)
		}
		flt := Filter{MinEmployees: minE, MaxEmployees: maxE, MinRevenueM: minR, MaxRevenueM: maxR}
		cf := ix.cols.bind(flt)
		for _, tr := range []*tree{&ix.tree, &ix.bySIC2.tree, &ix.byCountry.tree} {
			for nd, node := range tr.nodes {
				if cf.meets(&tr.zones[nd]) {
					continue
				}
				for _, i := range tr.rows[node.lo:node.hi] {
					if flt.Admits(&companies[i]) {
						t.Fatalf("filter %+v: node %d (zone %+v) is skipped, but company %d (employees %d, revenue %v) passes",
							flt, nd, tr.zones[nd], i, companies[i].Employees, companies[i].RevenueM)
					}
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
		zones: make([]zone, 3), // an unfiltered search does not read them
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
// holds 1 to leafRows rows, ascending; every owned id is in one leaf; each
// node's zone is the box of its own rows; and the node arrays are bit-equal
// when built at one worker and at four. The
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
			if !slices.Equal(tr.rows, tr4.rows) || !slices.Equal(tr.nodes, tr4.nodes) || !slices.Equal(cones(tr), cones(tr4)) ||
				!slices.Equal(tr.zones, tr4.zones) {
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
			cols := newFilterColumns(c.Companies)
			for nd, n := range tr.nodes {
				if z := cols.zoneOf(tr.rows[n.lo:n.hi]); tr.zones[nd] != z {
					t.Fatalf("part %d/%d: node %d has zone %+v, its rows %+v", part, parts, nd, tr.zones[nd], z)
				}
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

// TestListTreeShape checks the cone trees over the candidate lists of both
// equality columns, on TestTreeShape's fixture, unpartitioned and as each
// third of three: the trees, their roots, zones and lists are bit-equal when
// built at one worker and at four, and the tree of each code is rooted where
// the previous code's ends, over exactly its list's positions; each inner
// node's children hold its first and second half and the second follows the
// first's subtree; each leaf holds 1 to leafRows ids, ascending; and the
// leaves of a code's tree hold the ids of its list, each once.
func TestListTreeShape(t *testing.T) {
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
			build := func(workers int) *Index {
				par.SetWorkers(workers)
				ix, err := NewShardIndex(c, reps, Cosine, part, parts)
				if err != nil {
					t.Fatal(err)
				}
				return ix
			}
			ix, ix4 := build(1), build(4)
			for col, l := range map[string][2]*codeLists{"sic2": {&ix.bySIC2, &ix4.bySIC2}, "country": {&ix.byCountry, &ix4.byCountry}} {
				l, l4 := l[0], l[1]
				bits := func(v []float64) []uint64 {
					out := make([]uint64, len(v))
					for j, x := range v {
						out[j] = math.Float64bits(x)
					}
					return out
				}
				if !slices.Equal(l.start, l4.start) || !slices.Equal(l.rows, l4.rows) || !slices.Equal(l.nodes, l4.nodes) ||
					!slices.Equal(l.roots, l4.roots) || !slices.Equal(bits(l.cones), bits(l4.cones)) || !slices.Equal(l.zones, l4.zones) {
					t.Fatalf("part %d/%d %s: the list trees differ between workers=1 and workers=4", part, parts, col)
				}
				// walk checks the subtree of node nd and returns the ids of its leaves.
				var walk func(nd uint32) []uint32
				walk = func(nd uint32) []uint32 {
					n := l.nodes[nd]
					if n.right == 0 {
						leaf := l.rows[n.lo:n.hi]
						if len(leaf) < 1 || len(leaf) > leafRows || !slices.IsSorted(leaf) {
							t.Fatalf("part %d/%d %s: leaf %d holds %v", part, parts, col, nd, leaf)
						}
						return slices.Clone(leaf)
					}
					a, b := l.nodes[nd+1], l.nodes[n.right]
					if n.right != nd+2*leaves(a.hi-a.lo) || a.lo != n.lo || a.hi != b.lo || b.hi != n.hi || a.hi-a.lo != (n.hi-n.lo)/2 {
						t.Fatalf("part %d/%d %s: node %d %+v has children %+v and %+v (at %d)", part, parts, col, nd, n, a, b, n.right)
					}
					return append(walk(nd+1), walk(n.right)...)
				}
				next := uint32(0) // where the next code's tree is rooted
				for code := range len(l.start) - 1 {
					list := l.of(uint32(code))
					if len(list) == 0 {
						continue
					}
					root := l.roots[code]
					if n := l.nodes[root]; root != next || n.lo != l.start[code] || n.hi != l.start[code+1] {
						t.Fatalf("part %d/%d %s: code %d is rooted at node %d %+v, want node %d over %d..%d",
							part, parts, col, code, root, n, next, l.start[code], l.start[code+1])
					}
					next = root + 2*leaves(uint32(len(list))) - 1
					got, want := walk(root), slices.Clone(list)
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("part %d/%d %s: the tree of code %d holds %v, its list %v", part, parts, col, code, got, list)
					}
				}
				if int(next) != len(l.nodes) || len(l.rows) != ix.OwnedCompanies() {
					t.Fatalf("part %d/%d %s: the trees end at node %d of %d, hold %d rows of %d owned",
						part, parts, col, next, len(l.nodes), len(l.rows), ix.OwnedCompanies())
				}
			}
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
// The white-space query runs on an index with no tree (every row a scaled copy
// of one direction, with norms past the floor test's range), so it is one
// visit over every row, looking at its context before its first block and
// every ctxCheckBlocks blocks after. A scan that searches a tree honours an
// expiring context too, before its first leaf.
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
		flat.Row(i)[0], flat.Row(i)[1] = float64(1+i%5)*0x1p+505, float64(2+2*(i%5))*0x1p+505
	}
	ix, err := NewIndex(c, flat, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	q := ix.newScan(5, Filter{}, [][]float64{flat.Row(0)}, []int{0})
	if q.leaves || len(ix.tree.nodes) != 0 {
		t.Fatal("an index with norms past the floor test's range has a tree")
	}
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
		// The look that fails comes before block after·ctxCheckBlocks+1.
		if rows := uint64(after) * group; o.admitted > rows {
			t.Errorf("expiry after %d looks: %d rows admitted, the scan should have stopped within %d", after, o.admitted, rows)
		}
	}
	if err := q.visit(context.Background(), q.newSelection(n), nil, 0, n, false); err != nil {
		t.Fatal(err)
	}

	counter := func(name string) uint64 { return obs.Default().Counter(name, "").Value() }
	ws0, wsErr0 := counter("whitespace_requests_total"), counter("whitespace_errors_total")
	ctx := &countdownCtx{Context: context.Background()}
	ctx.after.Store(1) // the look before the first block passes; the one after the first group does not
	if _, err := ix.WhitespaceContext(ctx, []int{1, 2, 3}, 5, Filter{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("white-space under an expiring context returned %v", err)
	}
	if got := ctx.calls.Load(); got != 2 {
		t.Errorf("white-space looked at its context %d times, want 2: the first group ran to its end", got)
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
	if _, err := prunable.WhitespaceContext(ctx, []int{1, 2, 3}, 5, Filter{MinEmployees: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leaf-path range-filtered white-space under an expired context returned %v", err)
	}
}
