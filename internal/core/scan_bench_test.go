package core

import (
	"testing"

	"repro/internal/par"
)

// BenchmarkScan is the layer benchmark of the candidate loop at the serving
// benchmark's shape (100k companies, 4 topics): compare two commits with
// benchstat in seconds, without the end-to-end harness. Each case reports ns
// per candidate row the scan has to consider.
//
// The w1 cases run on one worker and are the ones to compare kernels with:
// on a lent two-core host the two-worker rows swing by a factor of two on
// identical code. Every unfiltered exact case searches the index's cone tree
// best bound first and stops where no node can beat its floor, so on these
// rows, topic-mixture-like, it reads a fraction of a percent of them on the
// calling goroutine. unpruned is the worst case, every row a scaled copy of
// one direction, where no node can be skipped: the search reads handOffRows
// rows, then hands the subtrees left (≤ handOffRows rows each) to the workers
// as tasks, which they visit leaf by leaf, the only case in which a tree scan
// fans out; unpruned/w1 is the same scan on one worker. d3 and d8 are a width the floor test unrolls and one it does
// not; anncells and anncells20k are pruned scans on either side of
// minFanoutRows, which differ in nothing but the number of workers that take
// their cells. whitespace4cells is the white-space query under that pruner:
// four clients' eight cells each come to 32 at most, the 20k-row pool again,
// now with four dot products a row for the carried floor to save.
//
// filtered (Country, a tenth of the rows) and sic2 (SIC2, an eighth) are the
// rows that walk an equality filter's candidate list: they touch only their
// own rows, under minFanoutRows on one worker, yet ns/row still divides by
// every row, so they show what the lists save. range (MinEmployees, half the
// rows) names no equality field, so no list applies: it tests every row, and
// should cost what it did before the lists.
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
	shard, pruned, pruned20k := *exact, *exact, *exact
	if err := shard.SetPartition(1, 2); err != nil {
		b.Fatal(err)
	}
	pruned.SetPruner(newCellPruner(n, 160, 8))     // 5% of the rows, ann-closed's share
	pruned20k.SetPruner(newCellPruner(n, 160, 32)) // 20k rows: a pool that fans out
	defer par.SetWorkers(0)

	topK := func(ix *Index) func(i int) error {
		return func(i int) error {
			_, err := ix.TopK(i%n, k, Filter{})
			return err
		}
	}
	whitespace4 := func(ix *Index) func(i int) error {
		return func(i int) error {
			_, err := ix.Whitespace([]int{i % n, (i + 7) % n, (i + 4001) % n, (i + 90001) % n}, k, Filter{})
			return err
		}
	}
	cases := []struct {
		name    string
		workers int
		rows    int
		run     func(i int) error
	}{
		{"exact", 2, n, topK(exact)},
		{"filtered", 2, n, func(i int) error {
			_, err := exact.TopK(i%n, k, Filter{Country: "C3"})
			return err
		}},
		{"sic2", 2, n, func(i int) error {
			_, err := exact.TopK(i%n, k, Filter{SIC2: 70})
			return err
		}},
		{"range", 2, n, func(i int) error {
			_, err := exact.TopK(i%n, k, Filter{MinEmployees: 2500})
			return err
		}},
		{"unpruned", 2, n, topK(unpruned)},
		{"shard1of2", 2, shard.OwnedCompanies(), topK(&shard)},
		{"whitespace4", 2, n, whitespace4(exact)},
		{"anncells", 2, n / 20, topK(&pruned)},
		{"anncells20k", 2, n / 5, topK(&pruned20k)},
		{"whitespace4cells", 2, n / 5, whitespace4(&pruned20k)},
		{"exact/w1", 1, n, topK(exact)},
		{"unpruned/w1", 1, n, topK(unpruned)},
		{"whitespace4/w1", 1, n, whitespace4(exact)},
		{"d3/w1", 1, n, topK(build(3))},
		{"d8/w1", 1, n, topK(build(8))},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			par.SetWorkers(tc.workers)
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
