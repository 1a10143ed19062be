package core

import (
	"math"
	"slices"

	"repro/internal/corpus"
)

// filterColumns is the scan's view of the four attributes Filter tests, one
// dense column each (24 B per company), so a filtered scan streams only the
// columns the filter names. SIC2 and Country are tested for equality only,
// so they are dictionary codes: any int and any string map exactly, and a
// filter value no company carries maps to noCode, which no row holds.
//
// The columns are the index's corpus.Columns, shared, not copied; admits
// must agree with Filter.Admits on every company and filter (pinned by
// TestFilterColumnsMatchAdmits).
type filterColumns struct {
	sic2      []uint32
	country   []uint32
	employees []int
	revenueM  []float64

	sic2Codes    map[int]uint32
	countryCodes map[string]uint32
}

// noCode is the interned code of a value absent from the corpus. Codes are
// assigned densely from 0, and NewIndex refuses a corpus of 2^32-1 companies
// or more, so no company's code — nor, in a candidate list, its id — is noCode.
const noCode = math.MaxUint32

// codeLists is an equality column's candidates grouped by code, made by a
// counting sort: the ids holding code c are rows[start[c]:start[c+1]] of the
// embedded tree, ascending when no tree is built and leaf by leaf, each leaf
// ascending, when one is (grow reorders them). An equality filter's exact
// scan searches its code's cone tree, rooted at node roots[c], instead of
// testing every row (scan.narrow); on an index with no tree it visits the
// code's list.
type codeLists struct {
	start []uint32 // one entry per code, and one past the last
	tree           // a tree per code over its ids; no nodes when none is built
	roots []uint32 // per code, the node its tree is rooted at
}

// newCodeLists groups the ids of owned — every id of col when owned is nil —
// by their code in col, whose codes are below codes.
func newCodeLists(col []uint32, codes int, owned []uint32) codeLists {
	n := len(col)
	if owned != nil {
		n = len(owned)
	}
	id := func(p int) uint32 {
		if owned == nil {
			return uint32(p)
		}
		return owned[p]
	}
	l := codeLists{start: make([]uint32, codes+1), tree: tree{rows: make([]uint32, n)}}
	for p := 0; p < n; p++ {
		l.start[col[id(p)]+1]++
	}
	for c := 0; c < codes; c++ {
		l.start[c+1] += l.start[c]
	}
	next := slices.Clone(l.start[:codes])
	for p := 0; p < n; p++ {
		i := id(p)
		l.rows[next[col[i]]] = i
		next[col[i]]++
	}
	return l
}

// of returns the list of code c, which may be empty (for noCode, say) but is
// never nil: a scan's nil rows mean every id (scan.rows).
func (l *codeLists) of(c uint32) []uint32 {
	if c == noCode {
		return l.rows[:0:0]
	}
	return l.rows[l.start[c]:l.start[c+1]]
}

// treeOf returns the tree to search for the ids of code c and the node it is
// rooted at: nil when no tree is built or c has no ids.
func (l *codeLists) treeOf(c uint32) (*tree, uint32) {
	if c == noCode || len(l.nodes) == 0 || l.start[c] == l.start[c+1] {
		return nil, 0
	}
	return &l.tree, l.roots[c]
}

func newFilterColumns(c *corpus.Columns) filterColumns {
	fc := filterColumns{
		sic2:         c.SIC2,
		country:      c.Country,
		employees:    c.Employees,
		revenueM:     c.RevenueM,
		sic2Codes:    make(map[int]uint32, len(c.SIC2Values)),
		countryCodes: make(map[string]uint32, len(c.CountryValues)),
	}
	for code, v := range c.SIC2Values {
		fc.sic2Codes[v] = uint32(code)
	}
	for code, v := range c.CountryValues {
		fc.countryCodes[v] = uint32(code)
	}
	return fc
}

// columnFilter is a Filter bound to an index's columns for one scan: the two
// equality fields resolved to codes once, the range bounds as given.
type columnFilter struct {
	cols *filterColumns
	// codes of Filter.SIC2 and Filter.Country: noCode for a value no company
	// carries, anyCode for a field the filter leaves open
	sic2, country              uint32
	minEmployees, maxEmployees int
	minRevenueM, maxRevenueM   float64
}

// anyCode is no company's code either: codes are below the number of
// companies, which is below noCode (NewIndex).
const anyCode = noCode - 1

// bind resolves f against the columns. The zero Filter admits everything;
// scans test for it once (against bind(Filter{})) and skip admits altogether.
func (fc *filterColumns) bind(f Filter) columnFilter {
	cf := columnFilter{cols: fc, sic2: anyCode, country: anyCode,
		minEmployees: f.MinEmployees, maxEmployees: f.MaxEmployees,
		minRevenueM: f.MinRevenueM, maxRevenueM: f.MaxRevenueM}
	if f.SIC2 != 0 {
		cf.sic2 = lookup(fc.sic2Codes, f.SIC2)
	}
	if f.Country != "" {
		cf.country = lookup(fc.countryCodes, f.Country)
	}
	return cf
}

// lookup returns v's code, noCode when no company carries v.
func lookup[V comparable](codes map[V]uint32, v V) uint32 {
	if c, ok := codes[v]; ok {
		return c
	}
	return noCode
}

// admits is Filter.Admits over the columns: same tests, same order.
func (cf *columnFilter) admits(i int) bool {
	if cf.sic2 != anyCode && cf.cols.sic2[i] != cf.sic2 {
		return false
	}
	if cf.country != anyCode && cf.cols.country[i] != cf.country {
		return false
	}
	if cf.minEmployees != 0 && cf.cols.employees[i] < cf.minEmployees {
		return false
	}
	if cf.maxEmployees != 0 && cf.cols.employees[i] > cf.maxEmployees {
		return false
	}
	if cf.minRevenueM != 0 && cf.cols.revenueM[i] < cf.minRevenueM {
		return false
	}
	if cf.maxRevenueM != 0 && cf.cols.revenueM[i] > cf.maxRevenueM {
		return false
	}
	return true
}

// zone is a cone-tree node's box over the two range-tested columns: the least
// and greatest employees and revenue of its rows (tree.zones).
type zone struct {
	minEmployees, maxEmployees int
	minRevenueM, maxRevenueM   float64
}

// zoneOf returns the zone of the rows ids. min and max return a NaN when an
// operand is one, so a NaN revenue leaves the zone's revenue bounds NaN, and
// meets, whose revenue tests are false for a NaN, never excludes the node: as
// it must, since admits lets a NaN revenue through every bound.
func (fc *filterColumns) zoneOf(ids []uint32) zone {
	z := zone{math.MaxInt, math.MinInt, math.Inf(1), math.Inf(-1)}
	for _, i := range ids {
		z.minEmployees = min(z.minEmployees, fc.employees[i])
		z.maxEmployees = max(z.maxEmployees, fc.employees[i])
		z.minRevenueM = min(z.minRevenueM, fc.revenueM[i])
		z.maxRevenueM = max(z.maxRevenueM, fc.revenueM[i])
	}
	return z
}

// union is the zone of the rows of a and b.
func (a zone) union(b zone) zone {
	return zone{min(a.minEmployees, b.minEmployees), max(a.maxEmployees, b.maxEmployees),
		min(a.minRevenueM, b.minRevenueM), max(a.maxRevenueM, b.maxRevenueM)}
}

// meets reports whether a row inside z may pass cf's range bounds. When it
// says no, admits refuses every row of z: each fails a bound on the side z
// lies beyond (FuzzZoneBound hunts for a counter-example). The revenue tests
// are written so that a NaN, in z or in a bound (which admits lets every row
// through), compares false and never excludes.
func (cf *columnFilter) meets(z *zone) bool {
	return (cf.minEmployees == 0 || z.maxEmployees >= cf.minEmployees) &&
		(cf.maxEmployees == 0 || z.minEmployees <= cf.maxEmployees) &&
		(cf.minRevenueM == 0 || !(z.maxRevenueM < cf.minRevenueM)) &&
		(cf.maxRevenueM == 0 || !(z.minRevenueM > cf.maxRevenueM))
}

// idSet is the set of ids a scan must never offer as candidates: the query
// company of a top-k, the client list of a white-space scan. Every row of a
// scan asks, so the common answer is one range test: a top-k's single id
// rejects all other rows there. Inside [lo, hi], client lists are short (a
// handful of ids), so membership is a linear scan of the list; past
// idSetListMax ids it is one bit per company instead.
type idSet struct {
	lo, hi int // bounds of the member ids; lo > hi when empty
	list   []int
	bits   []uint64
}

const idSetListMax = 16

// newIDSet builds the set over ids, none of which is n or above. (A negative
// id, TopKByVectorContext's "no company", is a member no row ever asks about.)
func newIDSet(ids []int, n int) idSet {
	s := idSet{lo: n, hi: -1, list: ids}
	for _, id := range ids {
		s.lo, s.hi = min(s.lo, id), max(s.hi, id)
	}
	if len(ids) > idSetListMax {
		s.list, s.bits = nil, make([]uint64, (n+63)/64)
		for _, id := range ids {
			s.bits[id>>6] |= 1 << (id & 63)
		}
	}
	return s
}

func (s *idSet) has(i int) bool {
	if i < s.lo || i > s.hi {
		return false
	}
	if s.bits != nil {
		return s.bits[i>>6]&(1<<(i&63)) != 0
	}
	for _, id := range s.list {
		if id == i {
			return true
		}
	}
	return false
}
