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
// the price of a file from a foreign producer.
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
	for _, bc := range []struct {
		name string
		data []byte
	}{
		{"canonical", canonical},
		{"fallback", bytes.ReplaceAll(canonical, []byte("\n{"), []byte("\n{ "))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.data)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := corpus.ReadJSONL(bytes.NewReader(bc.data))
				if err != nil || c.N() != 100000 {
					b.Fatalf("%d companies, error %v", c.N(), err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			lines := float64(b.N) * 100001
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/lines, "allocs/line")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/lines, "ns/line")
			fast, total := corpus.FastPathLines(bc.data, generated.Catalog)
			b.ReportMetric(float64(fast)/float64(total), "fastpath-share")
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
