package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/par"
)

// bigFixture builds a corpus large enough for the candidate scan to split
// into several shards, with deterministic (formula-based) representations.
func bigFixture(n int) (*corpus.Corpus, *mat.Matrix) {
	cat := corpus.DefaultCatalog()
	companies := make([]corpus.Company, n)
	reps := mat.New(n, 4)
	for i := range companies {
		companies[i] = corpus.Company{
			ID: i, Name: fmt.Sprintf("C%03d", i),
			Country: []string{"US", "DE", "GB"}[i%3], SIC2: 70 + i%5,
			Employees: 10 + i, RevenueM: float64(1 + i%7),
			Acquisitions: []corpus.Acquisition{{Category: i % cat.Size(), First: 0}},
		}
		row := reps.Row(i)
		for k := range row {
			row[k] = float64((i*31+k*17)%97) / 97
		}
	}
	return corpus.New(cat, companies), reps
}

func TestTopKLargerThanN(t *testing.T) {
	c, reps := fixture()
	ix, _ := NewIndex(c, reps, Cosine)
	matches, err := ix.TopK(0, 50, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	// k exceeds the candidate count: all 5 non-query companies come back,
	// sorted by descending similarity.
	if len(matches) != 5 {
		t.Fatalf("k>N returned %d matches, want 5", len(matches))
	}
	for i := 1; i < len(matches); i++ {
		if MatchBetter(matches[i], matches[i-1]) {
			t.Fatalf("matches out of order at %d: %+v", i, matches)
		}
	}
}

func TestTopKAllFiltered(t *testing.T) {
	c, reps := fixture()
	ix, _ := NewIndex(c, reps, Cosine)
	matches, err := ix.TopK(0, 3, Filter{Country: "FR"})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("all-filtered scan returned %+v", matches)
	}
}

func TestTopKEuclideanTies(t *testing.T) {
	// Rows 1 and 2 are exactly equidistant from row 0; the tie must break
	// toward the lower company id, at any worker count.
	cat := corpus.DefaultCatalog()
	companies := make([]corpus.Company, 3)
	for i := range companies {
		companies[i] = corpus.Company{ID: i, Name: fmt.Sprintf("T%d", i)}
	}
	c := corpus.New(cat, companies)
	reps := mat.FromSlice(3, 2, []float64{
		0, 0,
		1, 0,
		0, 1,
	})
	ix, err := NewIndex(c, reps, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := ix.TopK(0, 2, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 || matches[0].Similarity != matches[1].Similarity {
		t.Fatalf("expected a two-way tie, got %+v", matches)
	}
	if matches[0].CompanyID != 1 || matches[1].CompanyID != 2 {
		t.Fatalf("tie not broken by id: %+v", matches)
	}
}

// TestWhitespacePinned pins the exact Whitespace ranking on the small
// fixture so the sharded bounded-heap scan cannot change results.
func TestWhitespacePinned(t *testing.T) {
	c, reps := fixture()
	ix, _ := NewIndex(c, reps, Cosine)
	prospects, err := ix.Whitespace([]int{0}, 10, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	// Cosine similarity to company 0 orders the HW rows first, then the SW
	// rows by their residual first-topic weight.
	wantIDs := []int{1, 2, 5, 4, 3}
	if len(prospects) != len(wantIDs) {
		t.Fatalf("got %d prospects, want %d", len(prospects), len(wantIDs))
	}
	for i, p := range prospects {
		if p.CompanyID != wantIDs[i] {
			t.Fatalf("rank %d: company %d, want %d (%+v)", i, p.CompanyID, wantIDs[i], prospects)
		}
		if p.NearestClient != 0 {
			t.Fatalf("rank %d: nearest client %d, want 0", i, p.NearestClient)
		}
		if i > 0 && prospects[i].Similarity > prospects[i-1].Similarity {
			t.Fatal("prospects not sorted by similarity")
		}
	}
}

// TestTopkHeapMatchesFullSort cross-checks the bounded heap against a full
// sort for k values below, at, and above the candidate count, including
// heavy ties.
func TestTopkHeapMatchesFullSort(t *testing.T) {
	var all []Match
	for i := 0; i < 60; i++ {
		all = append(all, Match{CompanyID: i, Similarity: float64((i * 37) % 11)})
	}
	for _, k := range []int{1, 2, 7, 11, 59, 60, 61, 200} {
		h := &topkHeap[Match]{k: k, better: MatchBetter}
		for _, m := range all {
			h.push(m)
		}
		got := h.sorted()
		want := MergeTopK([][]Match{append([]Match(nil), all...)}, k, MatchBetter)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d selected, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d rank %d: heap %+v, sort %+v", k, i, got[i], want[i])
			}
		}
	}
}

func mustGob(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTopKWorkersGobIdentical proves the sharded candidate scans return
// gob-byte-identical results at workers=1 and workers=4.
func TestTopKWorkersGobIdentical(t *testing.T) {
	c, reps := bigFixture(150)
	for _, metric := range []Metric{Cosine, Euclidean} {
		ix, err := NewIndex(c, reps, metric)
		if err != nil {
			t.Fatal(err)
		}
		run := func(w int) (topk, ws []byte) {
			par.SetWorkers(w)
			defer par.SetWorkers(0)
			m, err := ix.TopK(0, 17, Filter{Country: "US"})
			if err != nil {
				t.Fatal(err)
			}
			p, err := ix.Whitespace([]int{0, 3, 7}, 23, Filter{})
			if err != nil {
				t.Fatal(err)
			}
			return mustGob(t, m), mustGob(t, p)
		}
		seqTopk, seqWS := run(1)
		parTopk, parWS := run(4)
		if !bytes.Equal(seqTopk, parTopk) {
			t.Fatalf("%v: TopK differs between workers=1 and workers=4", metric)
		}
		if !bytes.Equal(seqWS, parWS) {
			t.Fatalf("%v: Whitespace differs between workers=1 and workers=4", metric)
		}
	}
}
