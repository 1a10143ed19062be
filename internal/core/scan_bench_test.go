package core

import (
	"testing"

	"repro/internal/par"
)

// BenchmarkScan is the layer benchmark of the candidate loop at the serving
// benchmark's shape (100k companies, 4 topics, 2 workers): compare two
// commits with benchstat in seconds, without the end-to-end harness. Each
// case reports ns per candidate row the scan has to consider.
//
//	go test ./internal/core/ -run '^$' -bench BenchmarkScan -count 10
func BenchmarkScan(b *testing.B) {
	const n, d, k = 100_000, 4, 10
	c, reps := scanFixture(n, d, 1)
	build := func() *Index {
		ix, err := NewIndex(c, reps, Cosine)
		if err != nil {
			b.Fatal(err)
		}
		return ix
	}
	exact := build()
	shard := build()
	if err := shard.SetPartition(1, 2); err != nil {
		b.Fatal(err)
	}
	pruned := build()
	pruned.SetPruner(newCellPruner(n, 160, 8)) // 5% of the rows, ann-closed's share
	par.SetWorkers(2)
	defer par.SetWorkers(0)

	cases := []struct {
		name string
		rows int
		run  func(i int) error
	}{
		{"exact", n, func(i int) error {
			_, err := exact.TopK(i%n, k, Filter{})
			return err
		}},
		{"filtered", n, func(i int) error {
			_, err := exact.TopK(i%n, k, Filter{Country: "C3"})
			return err
		}},
		{"shard1of2", shard.OwnedCompanies(), func(i int) error {
			_, err := shard.TopK(i%n, k, Filter{})
			return err
		}},
		{"whitespace4", n, func(i int) error {
			_, err := exact.Whitespace([]int{i % n, (i + 7) % n, (i + 4001) % n, (i + 90001) % n}, k, Filter{})
			return err
		}},
		{"anncells", n / 20, func(i int) error {
			_, err := pruned.TopK(i%n, k, Filter{})
			return err
		}},
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
