package corpus

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/par"
	"repro/internal/snapshot"
)

// jsonCompany is the JSONL wire format for one company.
type jsonCompany struct {
	ID           int               `json:"id"`
	Name         string            `json:"name"`
	DUNS         string            `json:"duns"`
	Country      string            `json:"country"`
	SIC2         int               `json:"sic2"`
	Employees    int               `json:"employees"`
	RevenueM     float64           `json:"revenue_m"`
	Acquisitions []jsonAcquisition `json:"acquisitions"`
}

type jsonAcquisition struct {
	Category string `json:"category"` // by name, so files are self-describing
	First    string `json:"first"`    // YYYY-MM
}

// jsonHeader is the first line of a corpus JSONL file.
type jsonHeader struct {
	Format     string   `json:"format"` // "installbase-corpus/v1"
	Categories []string `json:"categories"`
}

const formatID = "installbase-corpus/v1"

// WriteJSONL streams the corpus to w: a header line with the catalog,
// then one JSON object per company.
func (c *Corpus) WriteJSONL(w io.Writer) error {
	jw, err := NewJSONLWriter(w, c.Catalog)
	if err != nil {
		return err
	}
	for i := range c.Companies {
		if err := jw.Write(&c.Companies[i]); err != nil {
			return err
		}
	}
	return jw.Flush()
}

const (
	// chunkBytes is the size of one decode task: large enough that handing
	// a chunk to a worker costs nothing beside decoding it, small enough
	// that a few per worker in flight stay a rounding error in memory.
	chunkBytes = 1 << 20
	// maxLineBytes bounds one line, terminator included. A longer one is an
	// error rather than an allocation of whatever the input asks for.
	maxLineBytes = 1 << 24
	// chunksPerWorker bounds the chunks read but not yet assembled, so the
	// reader's memory does not grow with the file.
	chunksPerWorker = 2
)

// ReadJSONL loads a corpus written by WriteJSONL. Unknown category names
// are an error; the catalog is reconstructed against the default catalog's
// metadata when names match, otherwise bare categories are created.
//
// The calling goroutine cuts the stream into chunks of whole lines and
// assembles the decoded chunks in file order; par.Workers() goroutines
// decode them in between. Everything that depends on other lines — line
// numbers, duplicate and negative ids, which error is the first — lives in
// the assembler, so the corpus and the error are those of a line-by-line
// reader whatever the worker count or chunk size. No goroutine outlives the
// call and r is not read after it returns.
func ReadJSONL(r io.Reader) (*Corpus, error) {
	return readJSONL(r, chunkBytes, maxLineBytes)
}

func readJSONL(r io.Reader, chunkSize, maxLine int) (*Corpus, error) {
	lr := &lineReader{r: r, chunk: min(chunkSize, maxLine), maxLine: maxLine}
	first := lr.next()
	if first == nil {
		if lr.err != io.EOF {
			return nil, fmt.Errorf("corpus: reading header: %w", lr.err)
		}
		return nil, fmt.Errorf("corpus: empty file")
	}
	hdrLine, rest := cutLine(first)
	var hdr jsonHeader
	if err := json.Unmarshal(hdrLine, &hdr); err != nil {
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

	workers := par.Workers()
	limit := chunksPerWorker * workers
	// Every chunk sent is one the loop below holds in pending, never more
	// than limit, so a send on work does not block.
	work := make(chan *chunk, limit)
	var wg sync.WaitGroup
	for ; workers > 0; workers-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dec lineDecoder
			for c := range work {
				c.done <- dec.decodeChunk(c.data, catalog)
			}
		}()
	}
	defer wg.Wait()
	defer close(work)

	asm := assembler{line: 1, seen: make(map[int]int)}
	pending := make([]*chunk, 0, limit) // read, not yet assembled, oldest first
	dispatch := func(data []byte) {
		c := &chunk{data: data, done: make(chan decoded, 1)}
		pending = append(pending, c)
		work <- c
	}
	if len(rest) > 0 {
		dispatch(rest)
	}
	for {
		for len(pending) < limit {
			data := lr.next()
			if data == nil {
				break
			}
			dispatch(data)
		}
		if len(pending) == 0 {
			break
		}
		oldest := <-pending[0].done
		lr.recycle(pending[0].data)
		pending = append(pending[:0], pending[1:]...)
		if err := asm.add(oldest); err != nil {
			return nil, err
		}
	}
	switch lr.err {
	case nil, io.EOF:
	case bufio.ErrTooLong:
		return nil, fmt.Errorf("corpus: line %d: %w", asm.line+1, lr.err)
	default:
		return nil, fmt.Errorf("corpus: scanning: %w", lr.err)
	}
	return &Corpus{Catalog: catalog, Companies: asm.companies()}, nil
}

// lineReader cuts a stream into chunks that end on a line boundary.
type lineReader struct {
	r       io.Reader
	chunk   int      // size at which a chunk is cut at its last newline
	maxLine int      // a line this long without its newline is bufio.ErrTooLong
	tail    []byte   // start of the line the previous chunk was cut in
	free    [][]byte // chunks handed back by recycle, for reuse
	err     error    // why next returned its last chunk: io.EOF, a read error, bufio.ErrTooLong
}

// next returns the next run of whole lines, nil when there is none. The
// last chunk of the input ends where the input does — an unterminated last
// line is a line, and what was read before a read error is still decoded,
// both as bufio.Scanner has it.
func (lr *lineReader) next() []byte {
	if lr.err != nil {
		return nil
	}
	var buf []byte
	if n := len(lr.free); n > 0 && cap(lr.free[n-1]) > len(lr.tail) {
		buf, lr.free = lr.free[n-1][:0], lr.free[:n-1]
	} else {
		buf = make([]byte, 0, max(lr.chunk, len(lr.tail)))
	}
	buf = append(buf, lr.tail...)
	lr.tail = lr.tail[:0]
	lastNL := -1
	for emptyReads := 0; ; {
		if len(buf) == cap(buf) {
			if lastNL >= 0 {
				lr.tail = append(lr.tail, buf[lastNL+1:]...)
				return buf[:lastNL+1]
			}
			if len(buf) >= lr.maxLine {
				lr.err = bufio.ErrTooLong
				return nil
			}
			buf = append(make([]byte, 0, min(2*cap(buf), lr.maxLine)), buf...)
		}
		n, err := lr.r.Read(buf[len(buf):cap(buf)])
		if i := bytes.LastIndexByte(buf[len(buf):len(buf)+n], '\n'); i >= 0 {
			lastNL = len(buf) + i
		}
		buf = buf[:len(buf)+n]
		if n > 0 {
			emptyReads = 0
		} else if emptyReads++; emptyReads > 100 && err == nil {
			err = io.ErrNoProgress // a reader that returns nothing, forever
		}
		if err != nil {
			lr.err = err
			if len(buf) == 0 {
				return nil
			}
			return buf
		}
	}
}

// recycle takes back a chunk next returned, once nothing reads it any more.
func (lr *lineReader) recycle(data []byte) {
	if cap(data) >= lr.chunk {
		lr.free = append(lr.free, data)
	}
}

// cutLine splits data after its first line, which it returns without the
// terminator ("\n" or "\r\n"; the end of data also ends a line).
func cutLine(data []byte) (line, rest []byte) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line, rest = data[:i], data[i+1:]
	} else {
		line = data
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest
}

// chunk is one decode task; done receives its result (capacity 1, so the
// worker never waits for the assembler).
type chunk struct {
	data []byte
	done chan decoded
}

// decoded is a chunk's lines in order, up to and excluding the first one
// that did not yield a company.
type decoded struct {
	companies []Company
	fault     *lineFault
}

// lineFault is what is wrong with a line, short of the line number only the
// assembler knows.
type lineFault struct {
	err      error  // JSON or month error; nil for an unknown category
	category string // the unknown category name
	hasID    bool   // the line parsed as JSON, so id is checked before the fault is reported
	id       int
}

// assembler owns the state that spans lines.
type assembler struct {
	line  int         // lines consumed so far, header included
	seen  map[int]int // company id -> line it first appeared on
	parts [][]Company // the chunks' companies, in file order
}

// companies joins the parts into one slice of exactly their size. Growing
// one slice by append as chunks arrive would leave its outgrown arrays —
// 1.2x the final one — for the collector, and how much of that is still
// around at the end of a load decides the process's peak memory.
func (a *assembler) companies() []Company {
	n := 0
	for _, p := range a.parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	out := make([]Company, 0, n)
	for _, p := range a.parts {
		out = append(out, p...)
	}
	return out
}

// add appends a chunk's companies, or returns the error of the first line
// at fault — the one a line-by-line reader would have stopped at.
func (a *assembler) add(d decoded) error {
	for i := range d.companies {
		a.line++
		if err := a.checkID(d.companies[i].ID); err != nil {
			return err
		}
	}
	a.parts = append(a.parts, d.companies)
	f := d.fault
	if f == nil {
		return nil
	}
	a.line++
	if f.hasID {
		if err := a.checkID(f.id); err != nil {
			return err
		}
	}
	if f.err != nil {
		return fmt.Errorf("corpus: line %d: %w", a.line, f.err)
	}
	return fmt.Errorf("corpus: line %d: unknown category %q", a.line, f.category)
}

func (a *assembler) checkID(id int) error {
	if id < 0 {
		return fmt.Errorf("corpus: line %d: negative company id %d", a.line, id)
	}
	if first, dup := a.seen[id]; dup {
		return fmt.Errorf("corpus: line %d: duplicate company id %d (first seen on line %d)", a.line, id, first)
	}
	a.seen[id] = a.line
	return nil
}

// decodeChunk decodes lines until one is at fault. A line in the shape
// JSONLWriter emits takes the strict fast path (canonical.go); any other
// goes through encoding/json, which alone decides what is an error.
func (dec *lineDecoder) decodeChunk(data []byte, catalog *Catalog) decoded {
	out := decoded{companies: make([]Company, 0, bytes.Count(data, []byte{'\n'})+1)}
	for len(data) > 0 {
		var line []byte
		line, data = cutLine(data)
		var co Company
		if !dec.canonical(line, catalog, &co) {
			if out.fault = decodeLine(line, catalog, &co); out.fault != nil {
				break
			}
		}
		out.companies = append(out.companies, co)
	}
	return out
}

// decodeLine is the general decoder: any JSON object encoding/json maps
// onto jsonCompany.
func decodeLine(line []byte, catalog *Catalog, co *Company) *lineFault {
	var jc jsonCompany
	if err := json.Unmarshal(line, &jc); err != nil {
		return &lineFault{err: err}
	}
	*co = Company{
		ID: jc.ID, Name: jc.Name, DUNS: jc.DUNS, Country: jc.Country,
		SIC2: jc.SIC2, Employees: jc.Employees, RevenueM: jc.RevenueM,
	}
	for _, a := range jc.Acquisitions {
		id := catalog.IDByName(a.Category)
		if id < 0 {
			return &lineFault{category: a.Category, hasID: true, id: jc.ID}
		}
		m, err := ParseMonth(a.First)
		if err != nil {
			return &lineFault{err: err, hasID: true, id: jc.ID}
		}
		co.Acquisitions = append(co.Acquisitions, Acquisition{Category: id, First: m})
	}
	co.SortAcquisitions()
	return nil
}

// JSONLWriter streams companies to a JSONL corpus file without holding the
// corpus in memory (paired with datagen's streaming generation for the
// paper's 860k-company scale).
type JSONLWriter struct {
	catalog *Catalog
	bw      *bufio.Writer
	enc     *json.Encoder
}

// NewJSONLWriter writes the header and returns a streaming writer.
func NewJSONLWriter(w io.Writer, catalog *Catalog) (*JSONLWriter, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	names := make([]string, catalog.Size())
	for i, cat := range catalog.Categories {
		names[i] = cat.Name
	}
	if err := enc.Encode(jsonHeader{Format: formatID, Categories: names}); err != nil {
		return nil, fmt.Errorf("corpus: writing header: %w", err)
	}
	return &JSONLWriter{catalog: catalog, bw: bw, enc: enc}, nil
}

// Write appends one company record.
func (w *JSONLWriter) Write(co *Company) error {
	jc := jsonCompany{
		ID: co.ID, Name: co.Name, DUNS: co.DUNS, Country: co.Country,
		SIC2: co.SIC2, Employees: co.Employees, RevenueM: co.RevenueM,
	}
	for _, a := range co.Acquisitions {
		jc.Acquisitions = append(jc.Acquisitions, jsonAcquisition{
			Category: w.catalog.Name(a.Category),
			First:    a.First.String(),
		})
	}
	if err := w.enc.Encode(jc); err != nil {
		return fmt.Errorf("corpus: writing company %d: %w", co.ID, err)
	}
	return nil
}

// Flush drains buffered output; call it once after the last Write.
func (w *JSONLWriter) Flush() error { return w.bw.Flush() }

// SaveFile writes the corpus as JSONL to path. The write is atomic: the
// data lands in a temp file that is fsynced and renamed over path, so a
// crash mid-write never leaves a truncated corpus at the destination.
func (c *Corpus) SaveFile(path string) error {
	return snapshot.Atomic(path, c.WriteJSONL)
}

// LoadFile reads a JSONL corpus from path.
func LoadFile(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}
