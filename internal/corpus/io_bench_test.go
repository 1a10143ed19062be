package corpus_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/datagen"
)

// BenchmarkReadJSONL is the corpus-load layer at the serving benchmark's
// size (100k generated companies, ~40 MB of JSONL), for benchstat comparisons
// without the end-to-end harness:
//
//	go test ./internal/corpus -run '^$' -bench BenchmarkReadJSONL -cpu 1,2 -count 5
//
// "canonical" is the file as WriteJSONL leaves it, every line on the fast
// path; "fallback" is the same file with one space after each line's opening
// brace, which is all it takes for every line to go through encoding/json —
// the price of a file from a foreign producer. "columns" reads the canonical
// file with ReadColumns, as ibserve does. live-MB is what one result keeps
// on the heap after a forced collection: a []Company with its strings and
// install bases, or the columns.
func BenchmarkReadJSONL(b *testing.B) {
	gen, err := datagen.NewGenerator(datagen.DefaultConfig(100000, 1))
	if err != nil {
		b.Fatal(err)
	}
	generated := gen.Generate()
	var buf bytes.Buffer
	if err := generated.WriteJSONL(&buf); err != nil {
		b.Fatal(err)
	}
	canonical := buf.Bytes()
	companies := func(data []byte) (any, int, error) {
		c, err := corpus.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return nil, 0, err
		}
		return c, c.N(), nil
	}
	columns := func(data []byte) (any, int, error) {
		c, err := corpus.ReadColumns(bytes.NewReader(data))
		if err != nil {
			return nil, 0, err
		}
		return c, c.N(), nil
	}
	for _, bc := range []struct {
		name string
		data []byte
		read func([]byte) (any, int, error)
	}{
		{"canonical", canonical, companies},
		{"fallback", bytes.ReplaceAll(canonical, []byte("\n{"), []byte("\n{ ")), companies},
		{"columns", canonical, columns},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.data)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, n, err := bc.read(bc.data); err != nil || n != 100000 {
					b.Fatalf("%d companies, error %v", n, err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			lines := float64(b.N) * 100001
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/lines, "allocs/line")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/lines, "ns/line")
			fast, total := corpus.FastPathLines(bc.data, generated.Catalog)
			b.ReportMetric(float64(fast)/float64(total), "fastpath-share")
			runtime.GC()
			runtime.ReadMemStats(&before)
			result, _, _ := bc.read(bc.data)
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(result)
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/1e6, "live-MB")
		})
	}
}

// TestGeneratedCorpusTakesFastPath guards boot time where the unit tests
// cannot: if the generator starts producing names the writer must escape
// (or the wire format drifts), every line still loads, through
// encoding/json, at a fifth of the speed.
func TestGeneratedCorpusTakesFastPath(t *testing.T) {
	gen, err := datagen.NewGenerator(datagen.DefaultConfig(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	c := gen.Generate()
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if fast, total := corpus.FastPathLines(buf.Bytes(), c.Catalog); fast != total || total != 2000 {
		t.Fatalf("%d of %d generated lines take the fast path", fast, total)
	}
}
