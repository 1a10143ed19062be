package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/corpus"
)

// BenchmarkScan is the layer benchmark of the candidate loop at the serving
// benchmark's shape (100k companies, 4 topics): compare two commits with
// benchstat in seconds, without the end-to-end harness. Each case reports ns
// per candidate row the scan has to consider. Every scan runs on the calling
// goroutine, whatever the worker count.
//
// Every exact case searches a cone tree best bound first and stops where no
// node can beat its floor, so on these rows, topic-mixture-like, an unfiltered
// top-k reads a fraction of a percent of them. whitespace64 is the many-client
// white-space, 64 query vectors whose floor rises slowly, so the search reads
// thousands of rows. unpruned is the worst case of the cones, every row a
// scaled copy of one direction, where no node can be skipped: the search reads
// every row, leaf by leaf. d3 and d8 are a width the floor test unrolls and
// one it does not; anncells and anncells20k are pruned scans of 5 % and 20 %
// of the rows, visited cell by cell. whitespace4cells is the white-space query
// under the larger pruner: four clients' eight cells each come to 32 at most,
// the 20k-row pool again, now with four dot products a row for the carried
// floor to save.
//
// filtered (Country, a tenth of the rows), sic2 (SIC2, an eighth) and
// country76 (one country holding 76 % of the rows, the shape of the serving
// benchmark's US) name one equality field and nothing else, so each searches
// its candidate list's cone tree as exact does the index's; ns/row still
// divides by every row. two names both (Country and SIC2, about 1 % of the
// rows) and searches the shorter list's tree, testing the other field row by
// row. The range cases name no equality field: they search the index's tree,
// test the bound row by row and skip the nodes whose zone it refuses. range
// admits half the rows (MinEmployees 2500), range1pct 1 % (4950), rare the
// ~0.02 % at the top of the range (5000), which the zones find, and raremid
// ~0.02 % in its middle (Min = Max = 2500), which no zone can isolate: the
// search reads leaves until it has found k admitted rows.
//
//	go test ./internal/core/ -run '^$' -bench BenchmarkScan -count 10
func BenchmarkScan(b *testing.B) {
	const n, k = 100_000, 10
	build := func(d int) *Index {
		c, reps := scanFixture(n, d, 1)
		ix, err := NewIndex(c, reps, Cosine)
		if err != nil {
			b.Fatal(err)
		}
		return ix
	}
	exact := build(4)
	c, reps := scanFixture(n, 4, 1)
	for i := 0; i < n; i++ {
		for j, v := range reps.Row(0) {
			reps.Row(i)[j] = v * float64(1+i%7)
		}
	}
	unpruned, err := NewIndex(c, reps, Cosine)
	if err != nil {
		b.Fatal(err)
	}
	us := slices.Clone(c.Companies)
	for i := range us {
		if i%100 < 76 {
			us[i].Country = "US"
		}
	}
	country76, err := NewIndex(corpus.New(c.Catalog, us), exact.Reps, Cosine)
	if err != nil {
		b.Fatal(err)
	}
	shard, pruned, pruned20k := *exact, *exact, *exact
	if err := shard.SetPartition(1, 2); err != nil {
		b.Fatal(err)
	}
	pruned.SetPruner(newCellPruner(n, 160, 8))     // 5% of the rows, ann-closed's share
	pruned20k.SetPruner(newCellPruner(n, 160, 32)) // 20k rows

	topK := func(ix *Index) func(i int) error {
		return func(i int) error {
			_, err := ix.TopK(i%n, k, Filter{})
			return err
		}
	}
	filtered := func(f Filter) func(i int) error {
		return func(i int) error {
			_, err := exact.TopK(i%n, k, f)
			return err
		}
	}
	whitespace4 := func(ix *Index) func(i int) error {
		return func(i int) error {
			_, err := ix.Whitespace([]int{i % n, (i + 7) % n, (i + 4001) % n, (i + 90001) % n}, k, Filter{})
			return err
		}
	}
	clients64 := make([]int, 64)
	whitespace64 := func(i int) error {
		for c := range clients64 {
			clients64[c] = (i + c*1543) % n
		}
		_, err := exact.Whitespace(clients64, k, Filter{})
		return err
	}
	cases := []struct {
		name string
		rows int
		run  func(i int) error
	}{
		{"exact", n, topK(exact)},
		{"filtered", n, filtered(Filter{Country: "C3"})},
		{"sic2", n, filtered(Filter{SIC2: 70})},
		{"country76", n, func(i int) error {
			_, err := country76.TopK(i%n, k, Filter{Country: "US"})
			return err
		}},
		{"two", n, filtered(Filter{Country: "C3", SIC2: 70})},
		{"range", n, filtered(Filter{MinEmployees: 2500})},
		{"range1pct", n, filtered(Filter{MinEmployees: 4950})},
		{"rare", n, filtered(Filter{MinEmployees: 5000})},
		{"raremid", n, filtered(Filter{MinEmployees: 2500, MaxEmployees: 2500})},
		{"unpruned", n, topK(unpruned)},
		{"shard1of2", shard.OwnedCompanies(), topK(&shard)},
		{"whitespace4", n, whitespace4(exact)},
		{"whitespace64", n, whitespace64},
		{"anncells", n / 20, topK(&pruned)},
		{"anncells20k", n / 5, topK(&pruned20k)},
		{"whitespace4cells", n / 5, whitespace4(&pruned20k)},
		{"d3", n, topK(build(3))},
		{"d8", n, topK(build(8))},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tc.run(i * 7919); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tc.rows), "ns/row")
		})
	}
}

// BenchmarkNewIndex builds the index at the serving benchmark's shape (100k
// companies, 4 topics): the corpus's columns, the norms, the candidate lists
// and the cone trees over all rows and over every list, which is what a boot
// and a reload pay before the first scan (a boot decodes the columns instead
// of building them from a corpus). live-MB is what one index keeps on the
// heap after a forced collection, its representations aside: the names,
// install bases and filter attributes the index owns included, the corpus it
// was built from not.
//
//	go test ./internal/core/ -run '^$' -bench BenchmarkNewIndex -count 10
func BenchmarkNewIndex(b *testing.B) {
	c, reps := scanFixture(100_000, 4, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewIndex(c, reps, Cosine); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/op")
	b.StopTimer()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, err := NewIndex(c, reps, Cosine)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ix)
	runtime.KeepAlive(c) // the index holds no reference to it
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/1e6, "live-MB")
}
