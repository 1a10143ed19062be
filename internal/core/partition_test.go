package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/rng"
)

// TestPartitionOfPinned pins the FNV-1a partition hash: shard processes agree
// on ownership only because every build computes the same mapping, so any
// change to these values is a wire-compatibility break.
func TestPartitionOfPinned(t *testing.T) {
	pinned := map[[2]int]int{
		{0, 3}:    1,
		{1, 3}:    0,
		{2, 3}:    0,
		{3, 3}:    2,
		{17, 3}:   2,
		{0, 2}:    1,
		{41, 5}:   3,
		{1000, 7}: 2,
	}
	for in, want := range pinned {
		if got := PartitionOf(in[0], in[1]); got != want {
			t.Errorf("PartitionOf(%d, %d) = %d, want %d (pinned — changing the hash breaks cross-process sharding)",
				in[0], in[1], got, want)
		}
	}
	if PartitionOf(123, 1) != 0 || PartitionOf(123, 0) != 0 {
		t.Error("parts <= 1 must map everything to partition 0")
	}
}

// TestPartitionCoversDisjointly checks the partition is a disjoint cover of
// the id space at several shard counts.
func TestPartitionCoversDisjointly(t *testing.T) {
	for _, parts := range []int{2, 3, 5, 8} {
		counts := make([]int, parts)
		for id := 0; id < 10000; id++ {
			p := PartitionOf(id, parts)
			if p < 0 || p >= parts {
				t.Fatalf("PartitionOf(%d, %d) = %d outside range", id, parts, p)
			}
			counts[p]++
		}
		for p, n := range counts {
			// A uniform hash keeps partitions within a loose band of N/parts.
			if n < 10000/parts/2 || n > 10000*2/parts {
				t.Errorf("parts=%d partition %d holds %d of 10000 ids — badly unbalanced", parts, p, n)
			}
		}
	}
}

func testPartitionIndex(t *testing.T) *Index {
	t.Helper()
	cat := corpus.DefaultCatalog()
	m := cat.Size()
	companies := make([]corpus.Company, 60)
	for i := range companies {
		companies[i] = corpus.Company{
			ID: i, Name: fmt.Sprintf("co-%02d", i),
			Country: []string{"US", "DE", "GB"}[i%3], SIC2: 70 + i%4,
			Employees: 10 + i, RevenueM: float64(1 + i%9),
			Acquisitions: []corpus.Acquisition{
				{Category: i % m, First: corpus.Month(i % 12)},
				{Category: (i*7 + 3) % m, First: corpus.Month(i%12 + 1)},
			},
		}
		companies[i].SortAcquisitions()
	}
	c := corpus.New(cat, companies)
	g := rng.New(11)
	reps := mat.New(c.N(), 4)
	for i := 0; i < reps.Rows*reps.Cols; i++ {
		reps.Data[i] = g.Float64()
	}
	full, err := NewIndex(c, reps, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// TestSetPartitionValidation covers the partition setter edge cases.
func TestSetPartitionValidation(t *testing.T) {
	full := testPartitionIndex(t)
	if err := full.SetPartition(3, 3); err == nil {
		t.Error("SetPartition(3, 3) should fail")
	}
	if err := full.SetPartition(-1, 3); err == nil {
		t.Error("SetPartition(-1, 3) should fail")
	}
	if err := full.SetPartition(0, 1); err != nil {
		t.Errorf("SetPartition(0, 1): %v", err)
	}
	if p, n := full.Partition(); p != 0 || n != 1 {
		t.Errorf("unpartitioned Partition() = %d, %d", p, n)
	}
	if err := full.SetPartition(2, 3); err != nil {
		t.Fatal(err)
	}
	if p, n := full.Partition(); p != 2 || n != 3 {
		t.Errorf("Partition() = %d, %d after SetPartition(2, 3)", p, n)
	}
	if own := full.OwnedCompanies(); own <= 0 || own >= full.N() {
		t.Errorf("OwnedCompanies() = %d of %d — partition should own a strict subset", own, full.N())
	}
	// A cancelled context still surfaces as an error on a partitioned scan.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := full.TopKContext(ctx, 0, 3, Filter{}); err == nil {
		t.Error("cancelled TopKContext on a partitioned index should fail")
	}
}
