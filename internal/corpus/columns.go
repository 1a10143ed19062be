package corpus

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// Columns is a corpus held as the columns a server reads per company, and
// nothing else: the name a response renders, the install base a
// recommendation tallies and the four attributes a business filter tests.
// Row i is company i; there are no ids to store, because ReadColumns and
// Corpus.Columns refuse a corpus whose ids differ from their rows. A server
// decodes its corpus file straight into columns (ReadColumns), so no
// []Company exists in it.
//
// SIC2 and Country are dictionary-coded: row i's SIC2 is
// SIC2Values[SIC2[i]], its country CountryValues[Country[i]], with codes
// given in order of first appearance. Columns must not change once built.
type Columns struct {
	Catalog *Catalog

	names   string   // every name back to back
	nameOff []uint32 // name i is names[nameOff[i]:nameOff[i+1]]
	bases   []uint16 // every install base back to back, each ascending
	baseOff []uint32 // install base i is bases[baseOff[i]:baseOff[i+1]]

	SIC2          []uint32
	SIC2Values    []int
	Country       []uint32
	CountryValues []string
	Employees     []int
	RevenueM      []float64
}

// maxColumnCategories is the catalog size a category id in Columns' uint16
// install bases can name.
const maxColumnCategories = 1 << 16

// N returns the number of companies.
func (c *Columns) N() int { return len(c.nameOff) - 1 }

// M returns the vocabulary size (number of product categories).
func (c *Columns) M() int { return c.Catalog.Size() }

// Name returns company i's name.
func (c *Columns) Name(i int) string { return c.names[c.nameOff[i]:c.nameOff[i+1]] }

// Base returns company i's install base: its category ids ascending, the
// list Corpus.Sets has on row i. The caller must not modify it.
func (c *Columns) Base(i int) []uint16 { return c.bases[c.baseOff[i]:c.baseOff[i+1]] }

// Sets returns every install base as Corpus.Sets does, as windows onto one
// new backing array: the lists a fold-in reads. It is a copy, four times the
// size of the column, for the caller to drop once it has folded in.
func (c *Columns) Sets() [][]int {
	flat := make([]int, len(c.bases))
	for i, cat := range c.bases {
		flat[i] = int(cat)
	}
	out := make([][]int, c.N())
	for i := range out {
		lo, hi := c.baseOff[i], c.baseOff[i+1]
		out[i] = flat[lo:hi:hi]
	}
	return out
}

// idRowError is the one rule on company ids: each equals its row, because
// every answer names companies by row. It returns nil when id is row.
func idRowError(row, id int) error {
	if id == row {
		return nil
	}
	return fmt.Errorf("company on row %d has id %d; ids must equal rows", row, id)
}

// CheckIDs returns an error naming the first company whose id is not its
// row, nil when there is none. A corpus it refuses cannot be indexed or
// served.
func (c *Corpus) CheckIDs() error {
	for i := range c.Companies {
		if err := idRowError(i, c.Companies[i].ID); err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
	}
	return nil
}

// Columns returns the corpus's columns, the same ReadColumns makes of its
// JSONL file. It refuses a corpus CheckIDs refuses and a catalog of more
// than 65536 categories.
func (c *Corpus) Columns() (*Columns, error) {
	if err := c.CheckIDs(); err != nil {
		return nil, err
	}
	if c.M() > maxColumnCategories {
		return nil, fmt.Errorf("corpus: %d categories, at most %d", c.M(), maxColumnCategories)
	}
	p := newColumnPart(c.N())
	var r record
	for i := range c.Companies {
		co := &c.Companies[i]
		setStrings(&r, co.Name, co.DUNS, co.Country)
		r.sic2, r.employees, r.revenueM = co.SIC2, co.Employees, co.RevenueM
		r.acqs = append(r.acqs[:0], co.Acquisitions...)
		p.add(&r)
	}
	return joinColumns(c.Catalog, []*columnPart{p})
}

// ReadColumns loads a file WriteJSONL wrote as Columns. It is ReadJSONL —
// the same chunk-parallel reader, fast path, encoding/json fallback and
// line-numbered errors — with two more rules: every line's id must equal
// its row, which is checked as the line is assembled ("corpus: line 3:
// company on row 1 has id 1000; ids must equal rows"), and the catalog may
// hold at most 65536 categories. So it fails where ReadJSONL fails, with
// ReadJSONL's error unless a line before or at the failing one breaks the
// id rule, and where Corpus.Columns would refuse ReadJSONL's corpus.
func ReadColumns(r io.Reader) (*Columns, error) {
	return readColumns(r, chunkBytes, maxLineBytes)
}

func readColumns(r io.Reader, chunkSize, maxLine int) (*Columns, error) {
	checkID := func(line, row, id int) error {
		if err := idRowError(row, id); err != nil {
			return fmt.Errorf("corpus: line %d: %w", line, err)
		}
		return nil
	}
	catalog, parts, err := decodeJSONL(r, chunkSize, maxLine, maxColumnCategories, newColumnPart, checkID)
	if err != nil {
		return nil, err
	}
	return joinColumns(catalog, parts)
}

// LoadColumns reads a JSONL corpus from path as Columns.
func LoadColumns(path string) (*Columns, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadColumns(f)
}

// columnPart is a run of rows of Columns on its way: one chunk's, on a
// decode worker, or a whole corpus's. Its offsets are ends within the part
// and its codes index its own dictionaries; joinColumns rebases both.
type columnPart struct {
	names     []byte
	nameEnd   []uint32
	bases     []uint16
	baseEnd   []uint32
	sic2      []uint32
	country   []uint32
	sic2s     dict[int]
	countries dict[string]
	employees []int
	revenueM  []float64
}

func newColumnPart(rows int) *columnPart {
	return &columnPart{
		nameEnd:   make([]uint32, 0, rows),
		baseEnd:   make([]uint32, 0, rows),
		sic2:      make([]uint32, 0, rows),
		country:   make([]uint32, 0, rows),
		employees: make([]int, 0, rows),
		revenueM:  make([]float64, 0, rows),
	}
}

func (p *columnPart) add(r *record) {
	p.names = append(p.names, r.name()...)
	p.nameEnd = append(p.nameEnd, uint32(len(p.names)))
	start := len(p.bases)
	for _, a := range r.acqs {
		p.bases = append(p.bases, uint16(a.Category))
	}
	slices.Sort(p.bases[start:])
	p.baseEnd = append(p.baseEnd, uint32(len(p.bases)))
	p.sic2 = append(p.sic2, p.sic2s.code(r.sic2))
	country, ok := p.countries.codes[string(r.country())]
	if !ok {
		country = p.countries.code(string(r.country()))
	}
	p.country = append(p.country, country)
	p.employees = append(p.employees, r.employees)
	p.revenueM = append(p.revenueM, r.revenueM)
}

// dict codes an equality column's values densely, in order of first
// appearance.
type dict[V comparable] struct {
	codes  map[V]uint32
	values []V
}

func (d *dict[V]) code(v V) uint32 {
	c, ok := d.codes[v]
	if !ok {
		if d.codes == nil {
			d.codes = make(map[V]uint32)
		}
		c = uint32(len(d.values))
		d.codes[v] = c
		d.values = append(d.values, v)
	}
	return c
}

// joinColumns joins the parts, in order, into Columns of exactly their
// size, each part dropped once copied. Codes are re-given in order of first
// appearance over all parts. It refuses names or install bases of 2^32
// bytes or entries and more, which the offsets cannot address.
func joinColumns(catalog *Catalog, parts []*columnPart) (*Columns, error) {
	var n, names, bases int
	for _, p := range parts {
		n, names, bases = n+len(p.nameEnd), names+len(p.names), bases+len(p.bases)
	}
	if names > math.MaxUint32 || bases > math.MaxUint32 {
		return nil, fmt.Errorf("corpus: %d name bytes and %d install-base entries, at most %d of each", names, bases, uint64(math.MaxUint32))
	}
	c := &Columns{
		Catalog:   catalog,
		nameOff:   make([]uint32, 1, n+1),
		bases:     make([]uint16, 0, bases),
		baseOff:   make([]uint32, 1, n+1),
		SIC2:      make([]uint32, 0, n),
		Country:   make([]uint32, 0, n),
		Employees: make([]int, 0, n),
		RevenueM:  make([]float64, 0, n),
	}
	var arena strings.Builder
	arena.Grow(names)
	var sic2s dict[int]
	var countries dict[string]
	for i, p := range parts {
		arena.Write(p.names)
		c.nameOff = rebase(c.nameOff, p.nameEnd)
		c.bases = append(c.bases, p.bases...)
		c.baseOff = rebase(c.baseOff, p.baseEnd)
		c.SIC2 = recode(c.SIC2, p.sic2, &p.sic2s, &sic2s)
		c.Country = recode(c.Country, p.country, &p.countries, &countries)
		c.Employees = append(c.Employees, p.employees...)
		c.RevenueM = append(c.RevenueM, p.revenueM...)
		parts[i] = nil
	}
	c.names = arena.String()
	c.SIC2Values, c.CountryValues = sic2s.values, countries.values
	return c, nil
}

// rebase appends a part's ends to off, offset by where off ends.
func rebase(off, ends []uint32) []uint32 {
	base := off[len(off)-1]
	for _, e := range ends {
		off = append(off, base+e)
	}
	return off
}

// recode appends a part's codes to col, translated from the part's
// dictionary into the joined one.
func recode[V comparable](col, codes []uint32, from, to *dict[V]) []uint32 {
	global := make([]uint32, len(from.values))
	for i, v := range from.values {
		global[i] = to.code(v)
	}
	for _, code := range codes {
		col = append(col, global[code])
	}
	return col
}
