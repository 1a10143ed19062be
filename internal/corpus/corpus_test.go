package corpus

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestDefaultCatalog(t *testing.T) {
	c := DefaultCatalog()
	if c.Size() != 38 {
		t.Fatalf("catalog size = %d, want 38 (the paper's M)", c.Size())
	}
	seen := make(map[string]bool)
	for _, cat := range c.Categories {
		if seen[cat.Name] {
			t.Fatalf("duplicate category %q", cat.Name)
		}
		seen[cat.Name] = true
	}
	if c.MustID("server_HW") != c.IDByName("server_HW") {
		t.Fatal("MustID and IDByName disagree")
	}
	if c.IDByName("nonexistent") != -1 {
		t.Fatal("unknown category should be -1")
	}
	nHW := 0
	for _, cat := range c.Categories {
		if cat.Group == Hardware {
			nHW++
		}
	}
	if nHW < 5 || nHW > 20 {
		t.Fatalf("unreasonable hardware split: %d", nHW)
	}
}

func TestMustIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultCatalog().MustID("bogus")
}

func TestSIC2Industries(t *testing.T) {
	inds := SIC2Industries()
	if len(inds) != 83 {
		t.Fatalf("industries = %d, want 83 (paper)", len(inds))
	}
	seen := make(map[int]bool)
	for _, ind := range inds {
		if seen[ind.SIC2] {
			t.Fatalf("duplicate SIC2 %d", ind.SIC2)
		}
		seen[ind.SIC2] = true
		if ind.Name == "" {
			t.Fatalf("empty industry name for %d", ind.SIC2)
		}
	}
}

func TestMonthArithmetic(t *testing.T) {
	m := MonthOf(2013, 1)
	if m.String() != "2013-01" {
		t.Fatalf("String = %q", m.String())
	}
	y, mo := (m + 13).Calendar()
	if y != 2014 || mo != 2 {
		t.Fatalf("month+13 = %d-%d", y, mo)
	}
	if MonthOf(1990, 1) != 0 {
		t.Fatal("epoch must be 0")
	}
	if DataEnd-DataStart != 26*12 {
		t.Fatalf("observation span = %d months", DataEnd-DataStart)
	}
}

func TestMonthRoundTripProperty(t *testing.T) {
	f := func(raw int64) bool {
		v := int(raw % 1000) // includes negative (pre-epoch) months
		m := Month(v)
		y, mo := m.Calendar()
		if mo < 1 || mo > 12 {
			return false
		}
		return MonthOf(y, mo) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// explicit pre-epoch case
	m := MonthOf(1989, 12)
	if m != -1 || m.String() != "1989-12" {
		t.Fatalf("1989-12 => %d %q", m, m.String())
	}
}

func testCompany() Company {
	return Company{
		ID: 0, Name: "ACME", DUNS: "123456789", Country: "US", SIC2: 80,
		Acquisitions: []Acquisition{
			{Category: 5, First: MonthOf(2001, 3)},
			{Category: 2, First: MonthOf(1995, 6)},
			{Category: 9, First: MonthOf(2010, 1)},
			{Category: 1, First: MonthOf(1995, 6)}, // tie with cat 2
		},
	}
}

func TestSortAndSequence(t *testing.T) {
	c := testCompany()
	c.SortAcquisitions()
	want := []int{1, 2, 5, 9} // ties broken by category id
	got := c.Sequence()
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("Sequence = %v, want %v", got, want)
		}
	}
}

func TestOwnedBeforeAcquiredIn(t *testing.T) {
	c := testCompany()
	c.SortAcquisitions()
	if got := c.OwnedBefore(MonthOf(2000, 1)); len(got) != 2 {
		t.Fatalf("OwnedBefore 2000 = %v", got)
	}
	got := c.AcquiredIn(MonthOf(2001, 1), MonthOf(2011, 1))
	if len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("AcquiredIn = %v", got)
	}
	if !c.Owns(9) || c.Owns(3) {
		t.Fatal("Owns wrong")
	}
}

func TestBinaryVector(t *testing.T) {
	c := testCompany()
	v := c.BinaryVector(12)
	var ones int
	for _, x := range v {
		if x == 1 {
			ones++
		} else if x != 0 {
			t.Fatalf("non-binary value %v", x)
		}
	}
	if ones != 4 {
		t.Fatalf("ones = %d", ones)
	}
}

func TestAggregateDomestic(t *testing.T) {
	sites := []SiteRecord{
		{SiteDUNS: "1", DomesticDUNS: "A", CompanyName: "Acme", Country: "US", SIC2: 80, Employees: 100, RevenueM: 10,
			Acquisitions: []Acquisition{{Category: 1, First: MonthOf(2000, 1)}, {Category: 2, First: MonthOf(2005, 1)}}},
		{SiteDUNS: "2", DomesticDUNS: "A", CompanyName: "Acme", Country: "US", SIC2: 80, Employees: 50, RevenueM: 5,
			Acquisitions: []Acquisition{{Category: 1, First: MonthOf(1998, 1)}, {Category: 3, First: MonthOf(2010, 1)}}},
		{SiteDUNS: "3", DomesticDUNS: "A", CompanyName: "Acme GmbH", Country: "DE", SIC2: 80, Employees: 30, RevenueM: 3,
			Acquisitions: []Acquisition{{Category: 4, First: MonthOf(2012, 1)}}},
	}
	companies := AggregateDomestic(sites)
	if len(companies) != 2 {
		t.Fatalf("companies = %d, want 2 (US and DE)", len(companies))
	}
	var us *Company
	for i := range companies {
		if companies[i].Country == "US" {
			us = &companies[i]
		}
	}
	if us == nil {
		t.Fatal("missing US company")
	}
	if us.Employees != 150 || us.RevenueM != 15 {
		t.Fatalf("US aggregation: %+v", us)
	}
	if len(us.Acquisitions) != 3 {
		t.Fatalf("US acquisitions = %v", us.Acquisitions)
	}
	// category 1 must keep the earliest first-seen (1998)
	for _, a := range us.Acquisitions {
		if a.Category == 1 && a.First != MonthOf(1998, 1) {
			t.Fatalf("earliest-first not kept: %v", a)
		}
	}
	// IDs dense and sorted deterministically
	if companies[0].ID != 0 || companies[1].ID != 1 {
		t.Fatalf("IDs not dense: %v %v", companies[0].ID, companies[1].ID)
	}
}

func smallCorpus() *Corpus {
	cat := DefaultCatalog()
	companies := []Company{
		{ID: 0, Name: "A", Acquisitions: []Acquisition{
			{Category: 0, First: MonthOf(2000, 1)}, {Category: 1, First: MonthOf(2001, 1)}}},
		{ID: 1, Name: "B", Acquisitions: []Acquisition{
			{Category: 1, First: MonthOf(2002, 1)}, {Category: 2, First: MonthOf(2003, 1)}, {Category: 3, First: MonthOf(2004, 1)}}},
		{ID: 2, Name: "C", Acquisitions: []Acquisition{
			{Category: 1, First: MonthOf(1999, 1)}}},
		{ID: 3, Name: "D"}, // empty install base
	}
	return New(cat, companies)
}

func TestCorpusBasics(t *testing.T) {
	c := smallCorpus()
	if c.N() != 4 || c.M() != 38 {
		t.Fatalf("N=%d M=%d", c.N(), c.M())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.TotalAcquisitions() != 6 {
		t.Fatalf("total = %d", c.TotalAcquisitions())
	}
	wantDensity := 6.0 / (4 * 38)
	if math.Abs(c.Density()-wantDensity) > 1e-12 {
		t.Fatalf("density = %v", c.Density())
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cat := DefaultCatalog()
	bad := &Corpus{Catalog: cat, Companies: []Company{{
		Acquisitions: []Acquisition{{Category: 99, First: 0}},
	}}}
	if bad.Validate() == nil {
		t.Fatal("out-of-range category not caught")
	}
	dup := &Corpus{Catalog: cat, Companies: []Company{{
		Acquisitions: []Acquisition{{Category: 1, First: 0}, {Category: 1, First: 5}},
	}}}
	if dup.Validate() == nil {
		t.Fatal("duplicate category not caught")
	}
	unsorted := &Corpus{Catalog: cat, Companies: []Company{{
		Acquisitions: []Acquisition{{Category: 1, First: 9}, {Category: 2, First: 5}},
	}}}
	if unsorted.Validate() == nil {
		t.Fatal("unsorted acquisitions not caught")
	}
}

func TestBinaryMatrix(t *testing.T) {
	c := smallCorpus()
	b := c.BinaryMatrix()
	if b.Rows != 4 || b.Cols != 38 {
		t.Fatalf("shape %dx%d", b.Rows, b.Cols)
	}
	if b.At(0, 0) != 1 || b.At(0, 1) != 1 || b.At(0, 2) != 0 {
		t.Fatal("row 0 wrong")
	}
	var sum float64
	for _, v := range b.Data {
		sum += v
	}
	if sum != 6 {
		t.Fatalf("matrix sum = %v", sum)
	}
}

func TestDocumentFrequenciesAndIDF(t *testing.T) {
	c := smallCorpus()
	df := c.DocumentFrequencies()
	if df[1] != 3 || df[0] != 1 || df[37] != 0 {
		t.Fatalf("df = %v", df[:4])
	}
	idf := c.IDF()
	// more common -> smaller idf
	if idf[1] >= idf[0] {
		t.Fatalf("idf ordering broken: idf[1]=%v idf[0]=%v", idf[1], idf[0])
	}
	for _, v := range idf {
		if v <= 0 {
			t.Fatalf("idf must stay positive, got %v", v)
		}
	}
}

func TestTFIDFMatrixRowsNormalized(t *testing.T) {
	c := smallCorpus()
	m := c.TFIDFMatrix()
	for i := 0; i < 3; i++ { // first three have products
		if n := mat2Norm(m.Row(i)); math.Abs(n-1) > 1e-9 {
			t.Fatalf("row %d norm = %v", i, n)
		}
	}
	if n := mat2Norm(m.Row(3)); n != 0 {
		t.Fatalf("empty company row norm = %v", n)
	}
}

// TestTFIDFWeights: one weight per entry of Sets(), each document's weights
// sum to its token count, and the rarer product weighs more. The empty
// company — the only all-zero TF-IDF row the smoothed IDF (>= 1) allows —
// gets no weights.
func TestTFIDFWeights(t *testing.T) {
	c := smallCorpus()
	sets := c.Sets()
	weights := c.TFIDFWeights()
	if len(weights) != len(sets) {
		t.Fatalf("%d weight rows for %d documents", len(weights), len(sets))
	}
	for d, w := range weights {
		if len(w) != len(sets[d]) {
			t.Fatalf("doc %d: %d weights for %d tokens", d, len(w), len(sets[d]))
		}
		var sum float64
		for _, x := range w {
			if x <= 0 {
				t.Fatalf("doc %d: non-positive weight %v (lda.Train rejects it)", d, x)
			}
			sum += x
		}
		if math.Abs(sum-float64(len(w))) > 1e-9 {
			t.Fatalf("doc %d: weights sum to %v, want %d", d, sum, len(w))
		}
	}
	// Company A owns category 0 (df 1) and category 1 (df 3).
	if weights[0][0] <= weights[0][1] {
		t.Fatalf("rare product weight %v <= common product weight %v", weights[0][0], weights[0][1])
	}
	if weights[2][0] != 1 {
		t.Fatalf("single-product company weight = %v, want 1", weights[2][0])
	}
}

func mat2Norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func TestSequencesAndSets(t *testing.T) {
	c := smallCorpus()
	seqs := c.Sequences()
	if len(seqs[1]) != 3 || seqs[1][0] != 1 || seqs[1][2] != 3 {
		t.Fatalf("seq = %v", seqs[1])
	}
	sets := c.Sets()
	for _, s := range sets {
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				t.Fatalf("set not strictly sorted: %v", s)
			}
		}
	}
	if len(seqs[3]) != 0 {
		t.Fatal("empty company should yield empty sequence")
	}
}

func TestTruncateBefore(t *testing.T) {
	c := smallCorpus()
	tr := c.TruncateBefore(MonthOf(2002, 1))
	if tr.N() != c.N() {
		t.Fatal("truncation should keep all companies")
	}
	if got := len(tr.Companies[1].Acquisitions); got != 0 {
		t.Fatalf("company B truncated acquisitions = %d, want 0", got)
	}
	if got := len(tr.Companies[0].Acquisitions); got != 2 {
		t.Fatalf("company A truncated acquisitions = %d, want 2", got)
	}
	// original untouched
	if len(c.Companies[1].Acquisitions) != 3 {
		t.Fatal("TruncateBefore mutated the original")
	}
}

func TestSubset(t *testing.T) {
	c := smallCorpus()
	s := c.Subset([]int{2, 0})
	if s.N() != 2 || s.Companies[0].Name != "C" || s.Companies[1].Name != "A" {
		t.Fatalf("subset wrong: %+v", s.Companies)
	}
}

func TestSplitFractions(t *testing.T) {
	cat := DefaultCatalog()
	companies := make([]Company, 100)
	for i := range companies {
		companies[i] = Company{ID: i, Acquisitions: []Acquisition{{Category: i % 38, First: 0}}}
	}
	c := New(cat, companies)
	sp, err := PaperSplit(c, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Train.N() != 70 || sp.Valid.N() != 10 || sp.Test.N() != 20 {
		t.Fatalf("split sizes %d/%d/%d", sp.Train.N(), sp.Valid.N(), sp.Test.N())
	}
	// no company appears twice
	seen := make(map[int]bool)
	for _, part := range []*Corpus{sp.Train, sp.Valid, sp.Test} {
		for i := range part.Companies {
			id := part.Companies[i].ID
			if seen[id] {
				t.Fatalf("company %d in two parts", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("split lost companies: %d", len(seen))
	}
	// determinism
	sp2, _ := PaperSplit(c, rng.New(1))
	if sp2.Train.Companies[0].ID != sp.Train.Companies[0].ID {
		t.Fatal("split not deterministic")
	}
}

func TestSplitErrors(t *testing.T) {
	c := smallCorpus()
	if _, err := SplitFractions(c, rng.New(1), 0.5, 0.2, 0.2); err == nil {
		t.Fatal("non-unit fractions should error")
	}
	if _, err := SplitFractions(c, rng.New(1), -0.1, 0.5, 0.6); err == nil {
		t.Fatal("negative fraction should error")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	c := smallCorpus()
	c.Companies[0].DUNS = "987654321"
	c.Companies[0].Country = "CH"
	c.Companies[0].SIC2 = 73
	c.Companies[0].Employees = 1234
	c.Companies[0].RevenueM = 56.7
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != c.N() || got.M() != c.M() {
		t.Fatalf("round-trip shape %d/%d", got.N(), got.M())
	}
	a, b := c.Companies[0], got.Companies[0]
	if a.DUNS != b.DUNS || a.Country != b.Country || a.SIC2 != b.SIC2 ||
		a.Employees != b.Employees || a.RevenueM != b.RevenueM {
		t.Fatalf("metadata mismatch: %+v vs %+v", a, b)
	}
	if len(a.Acquisitions) != len(b.Acquisitions) {
		t.Fatal("acquisitions count mismatch")
	}
	for i := range a.Acquisitions {
		if a.Acquisitions[i] != b.Acquisitions[i] {
			t.Fatalf("acquisition %d mismatch: %v vs %v", i, a.Acquisitions[i], b.Acquisitions[i])
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString("")); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := ReadJSONL(bytes.NewBufferString(`{"format":"wrong"}`)); err == nil {
		t.Fatal("wrong format should error")
	}
	hdr := `{"format":"installbase-corpus/v1","categories":["a","b"]}` + "\n"
	if _, err := ReadJSONL(bytes.NewBufferString(hdr + `{"acquisitions":[{"category":"zzz","first":"2000-01"}]}`)); err == nil {
		t.Fatal("unknown category should error")
	}
	if _, err := ReadJSONL(bytes.NewBufferString(hdr + `{"acquisitions":[{"category":"a","first":"garbage"}]}`)); err == nil {
		t.Fatal("bad month should error")
	}
}

func TestJSONLWriterStreaming(t *testing.T) {
	c := smallCorpus()
	var streamed bytes.Buffer
	jw, err := NewJSONLWriter(&streamed, c.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Companies {
		if err := jw.Write(&c.Companies[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	if err := c.WriteJSONL(&batch); err != nil {
		t.Fatal(err)
	}
	if streamed.String() != batch.String() {
		t.Fatal("streaming writer output differs from batch writer")
	}
	got, err := ReadJSONL(&streamed)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != c.N() || got.TotalAcquisitions() != c.TotalAcquisitions() {
		t.Fatal("streamed corpus does not round-trip")
	}
}
