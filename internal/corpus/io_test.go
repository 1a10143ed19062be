package corpus

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/par"
	"repro/internal/rng"
)

const testHdr = `{"format":"installbase-corpus/v1","categories":["a","b"]}` + "\n"

func TestReadJSONLRejectsDuplicateIDs(t *testing.T) {
	in := testHdr +
		`{"id":7,"name":"x","acquisitions":[]}` + "\n" +
		`{"id":7,"name":"y","acquisitions":[]}` + "\n"
	_, err := ReadJSONL(strings.NewReader(in))
	if err == nil {
		t.Fatal("duplicate company id accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 3") || !strings.Contains(msg, "line 2") {
		t.Fatalf("duplicate error should name both lines, got %q", msg)
	}
}

func TestReadJSONLRejectsNegativeID(t *testing.T) {
	in := testHdr + `{"id":-4,"name":"x"}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("negative company id accepted")
	}
}

func TestReadJSONLRejectsOutOfRangeMonth(t *testing.T) {
	in := testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"2001-13"}]}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("month 13 accepted")
	}
	in = testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"2001-00"}]}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("month 00 accepted")
	}
}

func TestReadJSONLParseErrorNamesLine(t *testing.T) {
	in := testHdr + `{"id":1}` + "\n" + `{not json` + "\n"
	_, err := ReadJSONL(strings.NewReader(in))
	if err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("parse error should carry the line number, got %q", err)
	}
}

func TestSaveFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.jsonl")
	c := smallCorpus()
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != c.N() || got.M() != c.M() {
		t.Fatalf("round-trip shape %d/%d, want %d/%d", got.N(), got.M(), c.N(), c.M())
	}
	// No temp litter next to the destination.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected only the corpus file, found %d entries", len(entries))
	}
}

func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := smallCorpus().WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-record
	f.Add([]byte(""))
	f.Add([]byte(testHdr))
	f.Add([]byte(testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"2001-13"}]}`))
	f.Add([]byte(testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"0001-05"}]}`))
	f.Add([]byte(testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"2013-05xyz"}]}`))
	f.Add([]byte(testHdr + `{"id":2}` + "\n" + `{"id":2}`))
	f.Add([]byte(testHdr + `{"id":0}` + "\n" + `{"id":2}` + "\n" + `{"id":1,"acquisitions":[{"category":"c","first":"2001-01"}]}`))
	f.Add([]byte(testHdr + `{"id":0,"name":"x","country":"US","sic2":7}` + "\n" + canonicalLine(1) + "\n" + `{"id":2,"country":"US","sic2":42}`))
	f.Add([]byte(`{"format":"installbase-corpus/v1","categories":[]}` + "\n"))
	f.Add([]byte("{not json"))
	for _, v := range lineVariants {
		f.Add([]byte(testHdr + v.line(1) + "\n" + canonicalLine(2) + "\r\n" + v.line(3)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Chunks far smaller than the input, so lines straddle them, and a
		// line limit inputs can reach.
		chunk, maxLine := 16+len(data)%113, 512
		c, err := readJSONL(bytes.NewReader(data), chunk, maxLine)
		if err != nil && c != nil {
			t.Fatal("ReadJSONL returned both a corpus and an error")
		}
		want, wantErr := readJSONLReference(bytes.NewReader(data), maxLine)
		if diff := diffRead(c, err, want, wantErr); diff != "" {
			t.Fatalf("chunk size %d: %s", chunk, diff)
		}
		cols, colsErr := readColumns(bytes.NewReader(data), chunk, maxLine)
		if colsErr != nil && cols != nil {
			t.Fatal("ReadColumns returned both columns and an error")
		}
		if diff := diffColumns(cols, colsErr, c, err); diff != "" {
			t.Fatalf("chunk size %d: ReadColumns: %s", chunk, diff)
		}
		if err == nil {
			// Accepted corpora must be internally consistent.
			seen := make(map[int]bool)
			for _, co := range c.Companies {
				if co.ID < 0 || seen[co.ID] {
					t.Fatalf("accepted corpus with bad/duplicate id %d", co.ID)
				}
				seen[co.ID] = true
				for _, a := range co.Acquisitions {
					if a.Category < 0 || a.Category >= c.M() {
						t.Fatalf("accepted acquisition with category %d outside [0,%d)", a.Category, c.M())
					}
				}
			}
		}
	})
}

// FuzzCompanyLine holds the fast path to its contract: a line it accepts
// decodes to exactly what encoding/json makes of it, without a fault.
func FuzzCompanyLine(f *testing.F) {
	for _, v := range lineVariants {
		f.Add([]byte(v.line(7)))
	}
	catalog := NewCatalog([]Category{{Name: "a"}, {Name: "b"}})
	f.Fuzz(func(t *testing.T, line []byte) {
		var dec lineDecoder
		var general record
		if !dec.canonical(line, catalog) {
			return
		}
		if fault := decodeLine(line, catalog, &general); fault != nil {
			t.Fatalf("fast path accepted %q, encoding/json path faults: %+v", line, fault)
		}
		fast, slow := dec.rec.company(), general.company()
		if !reflect.DeepEqual(fast, slow) || math.Float64bits(fast.RevenueM) != math.Float64bits(slow.RevenueM) {
			t.Fatalf("line %q\nfast path %+v\nencoding/json %+v", line, fast, slow)
		}
	})
}

func TestParseMonthStrict(t *testing.T) {
	good := map[string]Month{
		"1990-01": MonthOf(1990, 1),
		"2013-05": MonthOf(2013, 5),
		"1900-12": MonthOf(1900, 12),
		"2100-01": MonthOf(2100, 1),
	}
	for in, want := range good {
		got, err := ParseMonth(in)
		if err != nil || got != want {
			t.Errorf("ParseMonth(%q) = %v, %v; want %v, nil", in, got, err, want)
		}
	}
	bad := []string{
		"",
		"2013-5",     // month needs two digits
		"13-05",      // year needs four digits
		"2013-05xyz", // trailing garbage (Sscanf used to accept this)
		"2013-05 ",   // trailing space
		" 2013-05",   // leading space
		"2013_05",    // wrong separator
		"2013-13",    // month too large
		"2013-00",    // month zero
		"0001-05",    // implausible year (used to become a huge negative Month)
		"1899-12",    // below MinParseYear
		"2101-01",    // above MaxParseYear
		"-013-05",    // sign instead of digit
		"2013-0a",    // letter in month
		"20a3-05",    // letter in year
	}
	for _, in := range bad {
		if got, err := ParseMonth(in); err == nil {
			t.Errorf("ParseMonth(%q) = %v, accepted; want error", in, got)
		}
	}
}

func TestReadJSONLRejectsImplausibleYear(t *testing.T) {
	in := testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"0001-05"}]}` + "\n"
	_, err := ReadJSONL(strings.NewReader(in))
	if err == nil {
		t.Fatal("year 0001 accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("month error should carry the line number, got %q", err)
	}
}

func TestReadJSONLRejectsTrailingGarbageMonth(t *testing.T) {
	in := testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"2013-05xyz"}]}` + "\n"
	_, err := ReadJSONL(strings.NewReader(in))
	if err == nil {
		t.Fatal("trailing garbage after YYYY-MM accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("month error should carry the line number, got %q", err)
	}
}

// readJSONLReference is the one-goroutine bufio.Scanner + encoding/json
// reader that ReadJSONL was until it went chunk-parallel, kept as the oracle
// the parallel reader is compared against: same corpus, same error, for
// every input. maxLine stands in for the 16 MiB line limit so tests reach it.
func readJSONLReference(r io.Reader, maxLine int) (*Corpus, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, min(1<<20, maxLine)), maxLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("corpus: reading header: %w", err)
		}
		return nil, fmt.Errorf("corpus: empty file")
	}
	var hdr jsonHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("corpus: parsing header: %w", err)
	}
	if hdr.Format != formatID {
		return nil, fmt.Errorf("corpus: unknown format %q", hdr.Format)
	}
	def := DefaultCatalog()
	cats := make([]Category, len(hdr.Categories))
	for i, name := range hdr.Categories {
		if id := def.IDByName(name); id >= 0 {
			cats[i] = def.Categories[id]
		} else {
			cats[i] = Category{Name: name}
		}
	}
	catalog := NewCatalog(cats)
	var companies []Company
	seen := make(map[int]int) // company ID -> line it first appeared on
	line := 1
	for sc.Scan() {
		line++
		var jc jsonCompany
		if err := json.Unmarshal(sc.Bytes(), &jc); err != nil {
			return nil, fmt.Errorf("corpus: line %d: %w", line, err)
		}
		if jc.ID < 0 {
			return nil, fmt.Errorf("corpus: line %d: negative company id %d", line, jc.ID)
		}
		if first, dup := seen[jc.ID]; dup {
			return nil, fmt.Errorf("corpus: line %d: duplicate company id %d (first seen on line %d)", line, jc.ID, first)
		}
		seen[jc.ID] = line
		co := Company{
			ID: jc.ID, Name: jc.Name, DUNS: jc.DUNS, Country: jc.Country,
			SIC2: jc.SIC2, Employees: jc.Employees, RevenueM: jc.RevenueM,
		}
		for _, a := range jc.Acquisitions {
			id := catalog.IDByName(a.Category)
			if id < 0 {
				return nil, fmt.Errorf("corpus: line %d: unknown category %q", line, a.Category)
			}
			m, err := ParseMonth(a.First)
			if err != nil {
				return nil, fmt.Errorf("corpus: line %d: %w", line, err)
			}
			co.Acquisitions = append(co.Acquisitions, Acquisition{Category: id, First: m})
		}
		co.SortAcquisitions()
		companies = append(companies, co)
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("corpus: line %d: %w", line+1, err)
	} else if err != nil {
		return nil, fmt.Errorf("corpus: scanning: %w", err)
	}
	return &Corpus{Catalog: catalog, Companies: companies}, nil
}

// diffRead describes how a read's outcome differs from the reference's, ""
// when it does not: same error text, or the same corpus down to the sign of
// a zero revenue.
func diffRead(got *Corpus, gotErr error, want *Corpus, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
		}
		return ""
	}
	if len(got.Companies) != len(want.Companies) {
		return fmt.Sprintf("%d companies, reference %d", len(got.Companies), len(want.Companies))
	}
	for i := range want.Companies {
		g, w := got.Companies[i], want.Companies[i]
		if !reflect.DeepEqual(g, w) || math.Float64bits(g.RevenueM) != math.Float64bits(w.RevenueM) {
			return fmt.Sprintf("company %d is %+v, reference %+v", i, g, w)
		}
	}
	if !reflect.DeepEqual(got, want) {
		return "catalogs differ"
	}
	return ""
}

// diffColumns describes how ReadColumns' outcome on a file differs from
// what ReadJSONL's makes it: "" when it fails with ReadJSONL's error, or with
// the id rule's error on a file ReadJSONL fails on too or whose corpus
// breaks the rule there, or when it loads the corpus's names, install bases
// (as Sets has them) and filter attributes, row by row.
func diffColumns(got *Columns, gotErr error, want *Corpus, wantErr error) string {
	var idErr error // the id rule's error on want, as ReadColumns words it
	if wantErr == nil {
		for i, co := range want.Companies {
			if err := idRowError(i, co.ID); err != nil {
				idErr = fmt.Errorf("corpus: line %d: %w", i+2, err)
				break
			}
		}
	}
	switch {
	case gotErr != nil && wantErr != nil:
		if gotErr.Error() != wantErr.Error() && !strings.HasSuffix(gotErr.Error(), "; ids must equal rows") {
			return fmt.Sprintf("error %v, ReadJSONL %v", gotErr, wantErr)
		}
		return ""
	case gotErr != nil || wantErr != nil || idErr != nil:
		if gotErr == nil || idErr == nil || gotErr.Error() != idErr.Error() {
			return fmt.Sprintf("error %v, ReadJSONL %v, id rule %v", gotErr, wantErr, idErr)
		}
		return ""
	}
	if got.N() != want.N() || !reflect.DeepEqual(got.Catalog, want.Catalog) {
		return fmt.Sprintf("%d rows over %d categories, ReadJSONL %d over %d", got.N(), got.M(), want.N(), want.M())
	}
	sets := want.Sets()
	for i, co := range want.Companies {
		base := make([]int, 0, len(got.Base(i)))
		for _, cat := range got.Base(i) {
			base = append(base, int(cat))
		}
		if got.Name(i) != co.Name || !slices.Equal(base, sets[i]) ||
			got.SIC2Values[got.SIC2[i]] != co.SIC2 || got.CountryValues[got.Country[i]] != co.Country ||
			got.Employees[i] != co.Employees || math.Float64bits(got.RevenueM[i]) != math.Float64bits(co.RevenueM) {
			return fmt.Sprintf("row %d: name %q, base %v, sic2 %d, country %q, employees %d, revenue %v; ReadJSONL %+v",
				i, got.Name(i), base, got.SIC2Values[got.SIC2[i]], got.CountryValues[got.Country[i]],
				got.Employees[i], got.RevenueM[i], co)
		}
	}
	return ""
}

// canonicalLine is company id as JSONLWriter writes it.
func canonicalLine(id int) string {
	return fmt.Sprintf(`{"id":%d,"name":"Wrenport Holdings","duns":"100000007","country":"US","sic2":42,"employees":46,"revenue_m":12.76,`+
		`"acquisitions":[{"category":"b","first":"2011-10"},{"category":"a","first":"2007-11"}]}`, id)
}

// lineVariant is one way a producer may write (or botch) a company line.
// fault names the error kind the line causes on its own, "" for a line that
// loads; a line with two faults names the one that must win.
type lineVariant struct {
	name  string
	fault string
	line  func(id int) string
}

func fixed(s string) func(int) string { return func(int) string { return s } }

func withID(format string) func(int) string {
	return func(id int) string { return fmt.Sprintf(format, id) }
}

// canonicalVariants is how many entries at the head of lineVariants are in
// the writer's shape; tests draw their filler lines from those.
const canonicalVariants = 4

// lineVariants drives the differential test and seeds both fuzz targets.
// The catalog is testHdr's: categories "a" and "b".
var lineVariants = []lineVariant{
	// What the writer emits, and what the fast path must therefore take.
	{"canonical", "", canonicalLine},
	{"canonical null acquisitions", "", withID(`{"id":%d,"name":"","duns":"","country":"","sic2":0,"employees":0,"revenue_m":0,"acquisitions":null}`)},
	{"canonical exponent revenue", "", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":1e+21,"acquisitions":null}`)},
	{"canonical punctuation", "", withID(`{"id":%d,"name":"A/B, Inc. (#1) {x} [y] ~","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":0.5,"acquisitions":null}`)},
	// Valid JSON the fast path must decline or match exactly.
	{"minimal", "", withID(`{"id":%d}`)},
	{"reordered keys", "", withID(`{"name":"x","id":%d,"acquisitions":[{"first":"2001-02","category":"a"}],"country":"FR"}`)},
	{"upper-cased keys", "", withID(`{"ID":%d,"NAME":"x","Acquisitions":[{"CATEGORY":"b","First":"2001-02"}]}`)},
	{"duplicated keys", "", withID(`{"id":999999,"id":%d,"name":"x","name":"y"}`)},
	{"duplicated key after canonical prefix", "", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":3,"acquisitions":null,"employees":9}`)},
	{"unknown keys", "", withID(`{"id":%d,"founded":1999,"tags":["a",{"b":null}],"name":"x"}`)},
	{"whitespace", "", withID(` { "id" : %d , "name" : "x" , "acquisitions" : [ { "category" : "a" , "first" : "2001-02" } ] } `)},
	{"tab after canonical", "", func(id int) string { return canonicalLine(id) + "\t" }},
	{"unicode escape", "", withID(`{"id":%d,"name":"Caf\u00e9 \"Q\" \\ \/","duns":"1","country":"FR","sic2":1,"employees":2,"revenue_m":3,"acquisitions":null}`)},
	{"html escapes", "", withID(`{"id":%d,"name":"A \u0026 B \u003cx\u003e","duns":"1","country":"FR","sic2":1,"employees":2,"revenue_m":3,"acquisitions":null}`)},
	{"raw ampersand", "", withID(`{"id":%d,"name":"A & B <x>","duns":"1","country":"FR","sic2":1,"employees":2,"revenue_m":3,"acquisitions":null}`)},
	{"raw utf-8", "", withID(`{"id":%d,"name":"Café 東京","duns":"1","country":"FR","sic2":1,"employees":2,"revenue_m":3,"acquisitions":null}`)},
	{"invalid utf-8", "", withID("{\"id\":%d,\"name\":\"caf\xff\xc3\",\"duns\":\"1\",\"country\":\"FR\",\"sic2\":1,\"employees\":2,\"revenue_m\":3,\"acquisitions\":null}")},
	{"del byte", "", withID("{\"id\":%d,\"name\":\"x\x7fy\",\"duns\":\"1\",\"country\":\"FR\",\"sic2\":1,\"employees\":2,\"revenue_m\":3,\"acquisitions\":null}")},
	{"empty acquisitions array", "", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":3,"acquisitions":[]}`)},
	{"null fields", "", withID(`{"id":%d,"name":null,"sic2":null,"revenue_m":null,"acquisitions":[{"category":"a","first":"2001-02"}]}`)},
	{"negative zero revenue", "", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":-0,"acquisitions":null}`)},
	{"negative zero fraction", "", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":-0.0e-3,"acquisitions":null}`)},
	{"exponent revenue", "", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":1E2,"acquisitions":null}`)},
	{"subnormal revenue", "", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":4.9e-324,"acquisitions":null}`)},
	{"negative attributes", "", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":-1,"employees":-2,"revenue_m":-3.5,"acquisitions":null}`)},
	{"eighteen digit employees", "", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":999999999999999999,"revenue_m":3,"acquisitions":null}`)},
	{"max int64 employees", "", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":9223372036854775807,"revenue_m":3,"acquisitions":null}`)},
	{"unsorted repeated acquisitions", "", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":3,"acquisitions":[{"category":"b","first":"2011-10"},{"category":"a","first":"2011-10"},{"category":"b","first":"2011-10"},{"category":"a","first":"1990-01"}]}`)},
	// Lines that are an error.
	{"blank", "json", fixed("")},
	{"spaces only", "json", fixed("   ")},
	{"lone carriage return", "json", fixed("\r")},
	{"not json", "json", fixed(`{not json`)},
	{"truncated canonical", "json", func(id int) string { s := canonicalLine(id); return s[:len(s)-9] }},
	{"trailing garbage", "json", func(id int) string { return canonicalLine(id) + "x" }},
	{"two objects", "json", func(id int) string { return canonicalLine(id) + canonicalLine(id+1) }},
	{"array not object", "json", fixed(`[1,2]`)},
	{"control character", "json", withID("{\"id\":%d,\"name\":\"a\tb\",\"duns\":\"1\",\"country\":\"FR\",\"sic2\":1,\"employees\":2,\"revenue_m\":3,\"acquisitions\":null}")},
	{"negative zero id with leading zero", "json", fixed(`{"id":-00}`)},
	{"leading zero id", "json", fixed(`{"id":017,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":3,"acquisitions":null}`)},
	{"leading zero revenue", "json", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":01.5,"acquisitions":null}`)},
	{"bare fraction revenue", "json", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":.5,"acquisitions":null}`)},
	{"hex revenue", "json", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":0x10,"acquisitions":null}`)},
	{"infinite revenue", "json", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":Inf,"acquisitions":null}`)},
	{"revenue ends in a point", "json", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":1.,"acquisitions":null}`)},
	{"revenue ends in an exponent", "json", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":1e+,"acquisitions":null}`)},
	{"ends after acquisitions key", "json", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":1,"acquisitions":`)},
	{"ends inside acquisitions", "json", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":1,"acquisitions":[{"category":"a","first":"2001-02"}`)},
	{"revenue out of range", "json", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":1e999,"acquisitions":null}`)},
	{"float id", "json", fixed(`{"id":1.0,"name":"x"}`)},
	{"exponent id", "json", fixed(`{"id":1e2,"name":"x"}`)},
	{"exponent employees", "json", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":1e2,"revenue_m":3,"acquisitions":null}`)},
	{"id beyond int64", "json", fixed(`{"id":9223372036854775808}`)},
	{"nineteen nines id", "json", fixed(`{"id":9999999999999999999,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":3,"acquisitions":null}`)},
	{"string id", "json", fixed(`{"id":"7"}`)},
	{"number name", "json", withID(`{"id":%d,"name":7}`)},
	{"negative zero id", "", fixed(`{"id":-0,"name":"zero"}`)},
	{"negative id", "negative", fixed(`{"id":-4,"name":"x"}`)},
	{"unknown category", "category", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":3,"acquisitions":[{"category":"a","first":"2001-02"},{"category":"zzz","first":"2001-02"}]}`)},
	{"category case", "category", withID(`{"id":%d,"acquisitions":[{"category":"A","first":"2001-02"}]}`)},
	{"month 13", "month", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":3,"acquisitions":[{"category":"a","first":"2001-13"}]}`)},
	{"year 0001", "month", withID(`{"id":%d,"acquisitions":[{"category":"a","first":"0001-05"}]}`)},
	{"month garbage", "month", withID(`{"id":%d,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":3,"acquisitions":[{"category":"a","first":"2013-05xyz"}]}`)},
	{"month missing", "month", withID(`{"id":%d,"acquisitions":[{"category":"a"}]}`)},
	// Two faults on one line: the reference's order decides.
	{"negative id and unknown category", "negative", fixed(`{"id":-4,"acquisitions":[{"category":"zzz","first":"2001-02"}]}`)},
	{"negative id and bad month, canonical", "negative", fixed(`{"id":-4,"name":"x","duns":"1","country":"DE","sic2":1,"employees":2,"revenue_m":3,"acquisitions":[{"category":"a","first":"2001-13"}]}`)},
	{"bad month before unknown category", "month", withID(`{"id":%d,"acquisitions":[{"category":"a","first":"2001-13"},{"category":"zzz","first":"2001-02"}]}`)},
	{"unknown category before bad month", "category", withID(`{"id":%d,"acquisitions":[{"category":"zzz","first":"2001-13"}]}`)},
	{"type error and negative id", "json", fixed(`{"id":-4,"name":7}`)},
	{"type error and unknown category", "json", withID(`{"id":%d,"sic2":"x","acquisitions":[{"category":"zzz","first":"2001-02"}]}`)},
}

// buildFile joins lines with the given terminators; the last line gets none
// when terminated is false.
func buildFile(lines []string, crlf func(i int) bool, terminated bool) []byte {
	var b strings.Builder
	b.WriteString(testHdr)
	for i, l := range lines {
		b.WriteString(l)
		if i == len(lines)-1 && !terminated {
			break
		}
		if crlf(i) {
			b.WriteByte('\r')
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// checkAgainstReference reads data both ways, at chunk sizes that put every
// line on a boundary sooner or later and at one and three workers.
func checkAgainstReference(t *testing.T, name string, data []byte, maxLine int) (corpus *Corpus, err error) {
	t.Helper()
	defer par.SetWorkers(0)
	want, wantErr := readJSONLReference(bytes.NewReader(data), maxLine)
	for _, workers := range []int{1, 3} {
		par.SetWorkers(workers)
		for _, chunk := range []int{1, 7, 64, 257, 1 << 20} {
			got, gotErr := readJSONL(bytes.NewReader(data), chunk, maxLine)
			if diff := diffRead(got, gotErr, want, wantErr); diff != "" {
				t.Fatalf("%s (chunk %d, workers %d): %s\ninput:\n%s", name, chunk, workers, diff, data)
			}
		}
	}
	return want, wantErr
}

func never(int) bool { return false }

// TestReadJSONLMatchesReference is the reader's differential oracle: every
// line variant alone, every pair of faults in both orders and in one chunk or
// several, then seeded random files.
func TestReadJSONLMatchesReference(t *testing.T) {
	const maxLine = 1 << 12
	valid := func(id int) string { return lineVariants[id%canonicalVariants].line(id) }

	for _, v := range lineVariants {
		for _, terminated := range []bool{true, false} {
			data := buildFile([]string{valid(1), v.line(2), valid(3)}, func(i int) bool { return i == 1 }, terminated)
			_, err := checkAgainstReference(t, v.name, data, maxLine)
			if (err == nil) != (v.fault == "") {
				t.Fatalf("%s: reference error %v, variant declares fault %q", v.name, err, v.fault)
			}
			// As the last line, with and without its terminator.
			data = buildFile([]string{valid(1), v.line(2)}, never, terminated)
			checkAgainstReference(t, v.name+" last", data, maxLine)
		}
	}

	// Every pair of faulty lines, the first early or late, so that the
	// lowest line wins within a chunk and across chunks. A duplicate id is
	// the fault only the assembler can see; it joins the pairs as a line
	// that repeats id 1.
	faulty := []lineVariant{{"duplicate id", "duplicate", func(int) string { return canonicalLine(1) }}}
	for _, v := range lineVariants {
		if v.fault != "" {
			faulty = append(faulty, v)
		}
	}
	for _, a := range faulty {
		for _, b := range faulty {
			for _, gap := range []int{0, 1, 9} {
				lines := []string{valid(1), valid(2), a.line(3)}
				for i := 0; i < gap; i++ {
					lines = append(lines, valid(10+i))
				}
				lines = append(lines, b.line(4), valid(5))
				name := fmt.Sprintf("%s then %s, %d lines apart", a.name, b.name, gap)
				if _, err := checkAgainstReference(t, name, buildFile(lines, never, true), maxLine); err == nil {
					t.Fatalf("%s: loaded", name)
				}
			}
		}
		// The same line both faulty in itself and a duplicate.
		if a.fault == "month" || a.fault == "category" {
			lines := []string{valid(1), valid(2), a.line(2), valid(3)}
			_, err := checkAgainstReference(t, a.name+" on a duplicate id", buildFile(lines, never, true), maxLine)
			if err == nil || !strings.Contains(err.Error(), "duplicate company id 2") {
				t.Fatalf("%s on a duplicate id: error %v, want the duplicate reported first", a.name, err)
			}
		}
	}

	// Seeded random files: mostly loadable lines, the odd fault.
	g := rng.New(17)
	for trial := 0; trial < 300; trial++ {
		var lines []string
		for i, n := 0, g.Intn(30); i < n; i++ {
			v := lineVariants[g.Intn(len(lineVariants))]
			if v.fault != "" && g.Float64() < 0.9 {
				v = lineVariants[g.Intn(canonicalVariants)]
			}
			id := i + 1
			if g.Float64() < 0.03 {
				id = 1 + g.Intn(i+1) // a duplicate
			}
			lines = append(lines, v.line(id))
		}
		crlf := g.Float64() < 0.3
		data := buildFile(lines, func(int) bool { return crlf }, g.Float64() < 0.7)
		checkAgainstReference(t, fmt.Sprintf("random file %d", trial), data, maxLine)
	}
}

// TestReadJSONLLineLimit places lines on both sides of the line limit,
// early, late and last, and checks the error now names the line.
func TestReadJSONLLineLimit(t *testing.T) {
	const maxLine = 300
	pad := func(id, length int) string { // a loadable line of exactly length bytes
		base := fmt.Sprintf(`{"id":%d,"name":""}`, id)
		return fmt.Sprintf(`{"id":%d,"name":"%s"}`, id, strings.Repeat("n", length-len(base)))
	}
	for _, tc := range []struct {
		name    string
		lines   []string
		endNL   bool
		wantErr string
	}{
		{"one under, terminated", []string{canonicalLine(1), pad(2, maxLine-1), canonicalLine(3)}, true, ""},
		{"at the limit, terminated", []string{canonicalLine(1), pad(2, maxLine), canonicalLine(3)}, true, "corpus: line 3: bufio.Scanner: token too long"},
		{"one under, last, unterminated", []string{canonicalLine(1), pad(2, maxLine-1)}, false, ""},
		{"at the limit, last, unterminated", []string{canonicalLine(1), pad(2, maxLine)}, false, "corpus: line 3: bufio.Scanner: token too long"},
		{"far over, early", []string{pad(1, 5*maxLine), canonicalLine(2)}, true, "corpus: line 2: bufio.Scanner: token too long"},
		{"fault before the long line wins", []string{`{"id":-1}`, pad(2, 2*maxLine)}, true, "corpus: line 2: negative company id -1"},
		{"fault after the long line loses", []string{canonicalLine(1), pad(2, 2*maxLine), `{"id":-1}`}, true, "corpus: line 3: bufio.Scanner: token too long"},
	} {
		data := buildFile(tc.lines, never, tc.endNL)
		_, err := checkAgainstReference(t, tc.name, data, maxLine)
		if got := fmt.Sprint(err); (tc.wantErr == "" && err != nil) || (tc.wantErr != "" && got != tc.wantErr) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
		}
		if strings.Contains(tc.wantErr, "too long") && !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("%s: error %v does not wrap bufio.ErrTooLong", tc.name, err)
		}
	}
	// A header that long is still a header error.
	data := []byte(strings.Repeat(" ", maxLine) + testHdr)
	if _, err := checkAgainstReference(t, "long header", data, maxLine); err == nil || !strings.Contains(err.Error(), "reading header") {
		t.Errorf("long header: error %v", err)
	}
}

// TestReadJSONLReaderBehaviour feeds the same bytes through readers that
// return one byte at a time, data together with io.EOF, or fail midway: what
// arrived before a read error is still decoded first, as bufio.Scanner has it.
func TestReadJSONLReaderBehaviour(t *testing.T) {
	const maxLine = 1 << 12
	defer par.SetWorkers(0)
	par.SetWorkers(2)
	boom := errors.New("boom")
	data := buildFile([]string{canonicalLine(1), `{"id":2}`, canonicalLine(3), `{"id":4}`}, never, true)
	cut := len(data) - 30 // inside line 4
	for _, tc := range []struct {
		name    string
		reader  func(b []byte) io.Reader
		wantErr string // a substring; "" for a clean load
	}{
		{"one byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }, ""},
		{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }, ""},
		{"data with EOF", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }, ""},
		{"fails at once", func([]byte) io.Reader { return iotest.ErrReader(boom) }, "corpus: reading header: boom"},
		{"fails between lines", func(b []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(b), iotest.ErrReader(boom))
		}, "corpus: scanning: boom"},
		{"fails inside a line", func(b []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(b[:cut]), iotest.ErrReader(boom))
		}, "corpus: line 4: unexpected end of JSON input"},
		{"stalls", func(b []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(b), stalled{})
		}, "corpus: scanning: multiple Read calls return no data or error"},
		{"fails after a fault", func(b []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(b), strings.NewReader(`{"id":-9}`+"\n"), iotest.ErrReader(boom))
		}, "corpus: line 6: negative company id -9"},
	} {
		want, wantErr := readJSONLReference(tc.reader(data), maxLine)
		if got := fmt.Sprint(wantErr); (tc.wantErr == "") != (wantErr == nil) || !strings.Contains(got, tc.wantErr) {
			t.Errorf("%s: reference error %v, want %q", tc.name, wantErr, tc.wantErr)
		}
		for _, chunk := range []int{5, 100, 1 << 20} {
			got, gotErr := readJSONL(tc.reader(data), chunk, maxLine)
			if diff := diffRead(got, gotErr, want, wantErr); diff != "" {
				t.Errorf("%s (chunk %d): %s", tc.name, chunk, diff)
			}
		}
	}
}

// stalled is a reader that never returns data, an error or the end.
type stalled struct{}

func (stalled) Read([]byte) (int, error) { return 0, nil }

// TestWriterLinesTakeFastPath ties the fast path to the writer: if the wire
// struct or the encoder's habits change, loading still works (every line
// falls back) but boot quietly takes three times as long — fail here instead.
func TestWriterLinesTakeFastPath(t *testing.T) {
	c := smallCorpus()
	c.Companies = append(c.Companies, Company{
		ID: 4, Name: "Wrenport Holdings, Inc. #2", DUNS: "100000007", Country: "US",
		SIC2: 42, Employees: 46, RevenueM: 1.5e-7,
		Acquisitions: []Acquisition{{Category: 37, First: MonthOf(1990, 1)}, {Category: 0, First: MonthOf(2016, 1)}},
	})
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	_, body := cutLine(buf.Bytes())
	var dec lineDecoder
	for i := 0; len(body) > 0; i++ {
		var line []byte
		line, body = cutLine(body)
		if !dec.canonical(line, c.Catalog) {
			t.Fatalf("fast path declined the writer's own line %s", line)
		}
		if co := dec.rec.company(); !reflect.DeepEqual(co, c.Companies[i]) {
			t.Fatalf("fast path decoded %+v, wrote %+v", co, c.Companies[i])
		}
	}
}

// TestSetsShareNoAppendRoom pins the flat layout's safety: sets sit side by
// side in one array, so each must be capped at its own length.
func TestSetsShareNoAppendRoom(t *testing.T) {
	c := smallCorpus()
	sets := c.Sets()
	want := [][]int{{0, 1}, {1, 2, 3}, {1}, {}}
	if !reflect.DeepEqual(sets, want) {
		t.Fatalf("Sets() = %v, want %v", sets, want)
	}
	_ = append(sets[0], 99)
	if !reflect.DeepEqual(sets, want) {
		t.Fatalf("append to one set changed another: %v", sets)
	}
}
