package core

import (
	"math"

	"repro/internal/corpus"
)

// filterColumns is the scan's copy of the four corpus.Company attributes
// Filter tests, one dense column each (24 B per company), so a filtered scan
// streams only the columns the filter names instead of chasing 104-byte
// Company structs. SIC2 and Country are tested for equality only, so they are
// interned to dense codes: any int and any string map exactly, and a filter
// value no company carries maps to noCode, which no row holds.
//
// The columns are a second copy of data that lives in Corpus.Companies;
// admits must agree with Filter.Admits on every company and filter (pinned by
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
// assigned densely from 0 and a corpus holds fewer than 2^32-1 companies.
const noCode = math.MaxUint32

func newFilterColumns(companies []corpus.Company) filterColumns {
	n := len(companies)
	fc := filterColumns{
		sic2:         make([]uint32, n),
		country:      make([]uint32, n),
		employees:    make([]int, n),
		revenueM:     make([]float64, n),
		sic2Codes:    make(map[int]uint32),
		countryCodes: make(map[string]uint32),
	}
	for i := range companies {
		c := &companies[i]
		sc, ok := fc.sic2Codes[c.SIC2]
		if !ok {
			sc = uint32(len(fc.sic2Codes))
			fc.sic2Codes[c.SIC2] = sc
		}
		cc, ok := fc.countryCodes[c.Country]
		if !ok {
			cc = uint32(len(fc.countryCodes))
			fc.countryCodes[c.Country] = cc
		}
		fc.sic2[i], fc.country[i] = sc, cc
		fc.employees[i], fc.revenueM[i] = c.Employees, c.RevenueM
	}
	return fc
}

// columnFilter is a Filter bound to an index's columns for one scan: the two
// equality fields resolved to codes once, the range bounds as given.
type columnFilter struct {
	f             Filter
	cols          *filterColumns
	sic2, country uint32 // codes of f.SIC2 and f.Country
}

// bind resolves f against the columns. The zero Filter admits everything;
// scans test for it once (f == Filter{}) and skip admits altogether.
func (fc *filterColumns) bind(f Filter) columnFilter {
	cf := columnFilter{f: f, cols: fc, sic2: noCode, country: noCode}
	if c, ok := fc.sic2Codes[f.SIC2]; ok {
		cf.sic2 = c
	}
	if c, ok := fc.countryCodes[f.Country]; ok {
		cf.country = c
	}
	return cf
}

// admits is Filter.Admits over the columns: same tests, same order.
func (cf *columnFilter) admits(i int) bool {
	if cf.f.SIC2 != 0 && cf.cols.sic2[i] != cf.sic2 {
		return false
	}
	if cf.f.Country != "" && cf.cols.country[i] != cf.country {
		return false
	}
	if cf.f.MinEmployees != 0 && cf.cols.employees[i] < cf.f.MinEmployees {
		return false
	}
	if cf.f.MaxEmployees != 0 && cf.cols.employees[i] > cf.f.MaxEmployees {
		return false
	}
	if cf.f.MinRevenueM != 0 && cf.cols.revenueM[i] < cf.f.MinRevenueM {
		return false
	}
	if cf.f.MaxRevenueM != 0 && cf.cols.revenueM[i] > cf.f.MaxRevenueM {
		return false
	}
	return true
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
// id, TopKByVector's "no company", is a member no row ever asks about.)
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
