package corpus

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Month indexes calendar months as an integer offset from January 1990,
// the start of the paper's observation period. Month 0 = 1990-01.
type Month int

// EpochYear anchors Month 0.
const EpochYear = 1990

// MonthOf converts a calendar (year, month-in-1..12) pair to a Month.
func MonthOf(year, month int) Month {
	return Month((year-EpochYear)*12 + (month - 1))
}

// Plausible calendar bounds for parsed months. Years outside this range are
// data errors: a mistyped "0001-05" would otherwise silently become a large
// negative Month that breaks every window computation built on it.
const (
	MinParseYear = 1900
	MaxParseYear = 2100
)

// ParseMonth parses a strict "YYYY-MM" calendar month: exactly four year
// digits, a dash, exactly two month digits, and nothing else. The year must
// fall in [MinParseYear, MaxParseYear] and the month in 01..12. Unlike a
// Sscanf round trip it rejects trailing garbage ("2013-05xyz") and
// implausible years ("0001-05").
func ParseMonth(s string) (Month, error) {
	m, fault := parseMonth(s)
	switch fault {
	case monthMalformed:
		return 0, fmt.Errorf("bad month %q: want YYYY-MM", s)
	case monthYearRange:
		return 0, fmt.Errorf("month %q: year outside %d..%d", s, MinParseYear, MaxParseYear)
	case monthOutOfYear:
		return 0, fmt.Errorf("month %q outside 01..12", s)
	}
	return m, nil
}

// monthFault says which of ParseMonth's rules a string broke.
type monthFault int

const (
	monthOK monthFault = iota
	monthMalformed
	monthYearRange
	monthOutOfYear
)

// parseMonth holds ParseMonth's rules without building the error, so s does
// not escape and the JSONL fast path can pass it a []byte conversion without
// allocating.
func parseMonth(s string) (Month, monthFault) {
	if len(s) != 7 || s[4] != '-' {
		return 0, monthMalformed
	}
	var y, mo int
	for i := 0; i < 4; i++ {
		d := s[i]
		if d < '0' || d > '9' {
			return 0, monthMalformed
		}
		y = y*10 + int(d-'0')
	}
	for i := 5; i < 7; i++ {
		d := s[i]
		if d < '0' || d > '9' {
			return 0, monthMalformed
		}
		mo = mo*10 + int(d-'0')
	}
	if y < MinParseYear || y > MaxParseYear {
		return 0, monthYearRange
	}
	if mo < 1 || mo > 12 {
		return 0, monthOutOfYear
	}
	return MonthOf(y, mo), monthOK
}

// Year returns the calendar year of m (floor division, so months before
// the 1990 epoch resolve to earlier years rather than wrapping).
func (m Month) Year() int {
	q := int(m) / 12
	if int(m)%12 < 0 {
		q--
	}
	return EpochYear + q
}

// Calendar returns (year, month-in-1..12).
func (m Month) Calendar() (int, int) {
	r := int(m) % 12
	if r < 0 {
		r += 12
	}
	return m.Year(), r + 1
}

// String formats m as YYYY-MM.
func (m Month) String() string {
	y, mo := m.Calendar()
	return fmt.Sprintf("%04d-%02d", y, mo)
}

// Paper-relevant time anchors: data spans 1990-01 .. 2016-01; the
// recommendation windows slide over 2013-01 .. 2016-01.
var (
	DataStart = MonthOf(1990, 1)
	DataEnd   = MonthOf(2016, 1)
)

// Acquisition records one product category entering a company's install
// base, with the month of its first confirmed appearance.
type Acquisition struct {
	Category int   // catalog index
	First    Month // month of first confirmed presence
}

// Company is an aggregated company: all sites in one country merged.
type Company struct {
	ID        int
	Name      string
	DUNS      string // domestic-ultimate D-U-N-S number
	Country   string
	SIC2      int // two-digit industry code
	Employees int
	RevenueM  float64 // annual revenue, millions USD

	// Acquisitions holds the install base sorted by (First, Category).
	Acquisitions []Acquisition
}

// SortAcquisitions orders the install base by first-seen month, breaking
// ties by category id so sequences are deterministic (the paper's A^S).
func (c *Company) SortAcquisitions() {
	slices.SortFunc(c.Acquisitions, func(a, b Acquisition) int {
		return cmp.Or(cmp.Compare(a.First, b.First), cmp.Compare(a.Category, b.Category))
	})
}

// Owns reports whether the company owns category cat (at any time).
func (c *Company) Owns(cat int) bool {
	for _, a := range c.Acquisitions {
		if a.Category == cat {
			return true
		}
	}
	return false
}

// OwnedBefore returns the categories first seen strictly before month m,
// in acquisition order. Acquisitions must already be sorted.
func (c *Company) OwnedBefore(m Month) []int {
	var out []int
	for _, a := range c.Acquisitions {
		if a.First >= m {
			break
		}
		out = append(out, a.Category)
	}
	return out
}

// AcquiredIn returns the set of categories whose first appearance falls in
// [from, to). Acquisitions must already be sorted.
func (c *Company) AcquiredIn(from, to Month) []int {
	var out []int
	for _, a := range c.Acquisitions {
		if a.First >= to {
			break
		}
		if a.First >= from {
			out = append(out, a.Category)
		}
	}
	return out
}

// Sequence returns the time-ordered category sequence A^S_i.
// Acquisitions must already be sorted.
func (c *Company) Sequence() []int {
	out := make([]int, len(c.Acquisitions))
	for i, a := range c.Acquisitions {
		out[i] = a.Category
	}
	return out
}

// SiteRecord is one raw, pre-aggregation record: a single business location
// (identified by its own D-U-N-S number) and the products observed there.
// The paper aggregates sites to the domestic (per-country) company level.
type SiteRecord struct {
	SiteDUNS     string
	DomesticDUNS string // D-U-N-S of the domestic ultimate
	CompanyName  string
	Country      string
	SIC2         int
	Employees    int
	RevenueM     float64
	Acquisitions []Acquisition
}

// AggregateDomestic merges site records into companies keyed by
// (DomesticDUNS, Country), exactly as the paper aggregates: product sets
// are unioned, keeping the earliest first-seen month per category;
// employees and revenue are summed across sites. Companies are returned
// sorted by DUNS for determinism, with dense IDs assigned.
func AggregateDomestic(sites []SiteRecord) []Company {
	type key struct {
		duns, country string
	}
	agg := make(map[key]*Company)
	first := make(map[key]map[int]Month)
	for _, s := range sites {
		k := key{s.DomesticDUNS, s.Country}
		c, ok := agg[k]
		if !ok {
			c = &Company{
				Name:    s.CompanyName,
				DUNS:    s.DomesticDUNS,
				Country: s.Country,
				SIC2:    s.SIC2,
			}
			agg[k] = c
			first[k] = make(map[int]Month)
		}
		c.Employees += s.Employees
		c.RevenueM += s.RevenueM
		fm := first[k]
		for _, a := range s.Acquisitions {
			if old, seen := fm[a.Category]; !seen || a.First < old {
				fm[a.Category] = a.First
			}
		}
	}
	keys := make([]key, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].duns != keys[j].duns {
			return keys[i].duns < keys[j].duns
		}
		return keys[i].country < keys[j].country
	})
	out := make([]Company, 0, len(keys))
	for id, k := range keys {
		c := agg[k]
		c.ID = id
		for cat, m := range first[k] {
			c.Acquisitions = append(c.Acquisitions, Acquisition{Category: cat, First: m})
		}
		c.SortAcquisitions()
		out = append(out, *c)
	}
	return out
}
