package corpus

import "strconv"

// The JSONL fast path. JSONLWriter emits every company in one fixed shape —
// jsonCompany's keys in declaration order, no insignificant whitespace,
// plain decimal integers — and at the paper's 860k companies decoding that
// shape by reflection is most of a server's boot. canonical recognises
// exactly that shape and nothing wider: whatever it is not sure of it
// declines, and the line goes through encoding/json as before. It therefore
// never reports an error and never yields a value encoding/json would not
// have (FuzzCompanyLine holds it to that).

// lineDecoder is one worker's scratch for the fast path, reused across lines.
type lineDecoder struct {
	strs []byte        // name, duns and country back to back
	acqs []Acquisition // the line's install base before it is sized
}

// maxIntDigits is the longest run of decimal digits that fits an int
// whatever the digits are (9 for 32-bit ints, 18 for 64-bit).
const maxIntDigits = 9 + 9*(strconv.IntSize/64)

// canonical decodes line into co if it has the writer's shape and reports
// whether it did. On false, co is unspecified and the caller decodes the
// line again with encoding/json.
func (dec *lineDecoder) canonical(line []byte, catalog *Catalog, co *Company) bool {
	c := cursor{b: line}
	c.lit(`{"id":`)
	id := c.uint()
	c.lit(`,"name":"`)
	name := c.str()
	c.lit(`,"duns":"`)
	duns := c.str()
	c.lit(`,"country":"`)
	country := c.str()
	c.lit(`,"sic2":`)
	sic2 := c.uint()
	c.lit(`,"employees":`)
	employees := c.uint()
	c.lit(`,"revenue_m":`)
	revenue := c.number()
	c.lit(`,"acquisitions":`)
	if c.bad {
		return false
	}

	dec.acqs = dec.acqs[:0]
	if c.peek() == 'n' {
		c.lit(`null`)
	} else {
		c.lit(`[`)
		for {
			c.lit(`{"category":"`)
			category := c.str()
			c.lit(`,"first":"`)
			first := c.str()
			c.lit(`}`)
			if c.bad {
				return false
			}
			cat, known := catalog.byName[string(category)]
			month, fault := parseMonth(string(first))
			if !known || fault != monthOK {
				return false // the general decoder words the error
			}
			dec.acqs = append(dec.acqs, Acquisition{Category: cat, First: month})
			if c.peek() != ',' {
				break
			}
			c.i++
		}
		c.lit(`]`)
	}
	c.lit(`}`)
	if c.bad || c.i != len(line) {
		return false
	}
	revenueM, err := strconv.ParseFloat(string(revenue), 64)
	if err != nil {
		return false // out of float64's range
	}

	// One allocation carries the three strings.
	dec.strs = append(append(append(dec.strs[:0], name...), duns...), country...)
	all := string(dec.strs)
	*co = Company{
		ID:        id,
		Name:      all[:len(name)],
		DUNS:      all[len(name) : len(name)+len(duns)],
		Country:   all[len(name)+len(duns):],
		SIC2:      sic2,
		Employees: employees,
		RevenueM:  revenueM,
	}
	if len(dec.acqs) > 0 {
		co.Acquisitions = make([]Acquisition, len(dec.acqs))
		copy(co.Acquisitions, dec.acqs)
		co.SortAcquisitions()
	}
	return true
}

// cursor walks a line. The first thing that does not match sets bad, after
// which every method is a no-op, so the caller checks once per stretch.
type cursor struct {
	b   []byte
	i   int
	bad bool
}

// peek returns the next byte, 0 at the end of the line.
func (c *cursor) peek() byte {
	if c.bad || c.i >= len(c.b) {
		return 0
	}
	return c.b[c.i]
}

// lit consumes exactly s.
func (c *cursor) lit(s string) {
	if c.bad || len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		c.bad = true
		return
	}
	c.i += len(s)
}

// uint consumes a non-negative integer as strconv.Itoa writes it — no sign,
// no leading zero, no fraction or exponent — short enough to fit an int.
func (c *cursor) uint() int {
	if c.bad {
		return 0
	}
	start, n := c.i, 0
	for c.i < len(c.b) && c.b[c.i]-'0' <= 9 {
		n = n*10 + int(c.b[c.i]-'0')
		c.i++
	}
	digits := c.i - start
	if digits == 0 || digits > maxIntDigits || (digits > 1 && c.b[start] == '0') {
		c.bad = true
	}
	return n
}

// str consumes the rest of a string whose opening quote the preceding lit
// took, closing quote included, and returns its bytes. Only bytes that stand
// for themselves are accepted: printable ASCII other than '"' and '\'. An
// escape, a control character or anything that needs UTF-8 validation is
// for the general decoder.
func (c *cursor) str() []byte {
	if c.bad {
		return nil
	}
	for start := c.i; c.i < len(c.b); c.i++ {
		switch ch := c.b[c.i]; {
		case ch == '"':
			c.i++
			return c.b[start : c.i-1]
		case ch < 0x20 || ch > 0x7e || ch == '\\':
			c.bad = true
			return nil
		}
	}
	c.bad = true
	return nil
}

// number consumes one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is narrower than what
// strconv.ParseFloat takes (hex, "inf", underscores).
func (c *cursor) number() []byte {
	if c.bad {
		return nil
	}
	start := c.i
	if c.peek() == '-' {
		c.i++
	}
	if c.peek() == '0' {
		c.i++
	} else if !c.digits() {
		return nil
	}
	if c.peek() == '.' {
		c.i++
		if !c.digits() {
			return nil
		}
	}
	if ch := c.peek(); ch == 'e' || ch == 'E' {
		c.i++
		if ch := c.peek(); ch == '+' || ch == '-' {
			c.i++
		}
		if !c.digits() {
			return nil
		}
	}
	return c.b[start:c.i]
}

// digits consumes one or more decimal digits; none sets bad.
func (c *cursor) digits() bool {
	start := c.i
	for c.i < len(c.b) && c.b[c.i]-'0' <= 9 {
		c.i++
	}
	if c.i == start {
		c.bad = true
	}
	return !c.bad
}
