package core

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/rng"
)

// TestScorerMatchesSimilarity is the kernel's bit-compatibility contract:
// every Score the blocked kernel produces must be bit-identical to the
// naive per-pair similarity (mat.CosineSim) the scans used before,
// including the zero-norm guards. Any drift here changes served results.
func TestScorerMatchesSimilarity(t *testing.T) {
	const n, d = 200, 7
	g := rng.New(29)
	rows := mat.New(n, d)
	for i := range rows.Data {
		rows.Data[i] = g.Float64() - 0.3 // mixed signs exercise cancellation
	}
	// Degenerate rows the guards must handle.
	for j := 0; j < d; j++ {
		rows.Row(3)[j] = 0
	}
	queries := [][]float64{rows.Row(0), rows.Row(n - 1), make([]float64, d)}
	for qi, q := range queries {
		sc := NewScorer(Cosine, q)
		for i := 0; i < n; i++ {
			got := sc.Score(rows.Row(i))
			want := mat.CosineSim(q, rows.Row(i))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("query=%d row=%d: Score=%v (bits %x) similarity=%v (bits %x)",
					qi, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		// ScoreBlock must agree with Score on any sub-range.
		dst := make([]float64, n)
		for _, span := range [][2]int{{0, n}, {3, 4}, {n / 2, n}, {5, 5}} {
			lo, hi := span[0], span[1]
			sc.ScoreBlock(rows, lo, hi, dst[lo:hi])
			for i := lo; i < hi; i++ {
				if math.Float64bits(dst[i]) != math.Float64bits(sc.Score(rows.Row(i))) {
					t.Fatalf("query=%d ScoreBlock[%d,%d) row %d differs from Score", qi, lo, hi, i)
				}
			}
		}
	}
}

// TestFilterAdmitsInjectionResistant holds adversarial countries to exact
// matching: Country is the only client-controlled string of a filter, and no
// crafted country (pipes, quotes, a NUL, another field's spelling) may admit
// what another variant admits. The companies carry every variant's country
// with and without employees and SIC2 1, so distinct filters must admit
// distinct sets.
func TestFilterAdmitsInjectionResistant(t *testing.T) {
	variants := []Filter{
		{Country: "US", MinEmployees: 1},
		{Country: "US|e1:0"},
		{Country: `US"|e1:0|r0:0`},
		{Country: "US|e1"},
		{Country: "US\x00DE"},
		{Country: "USDE"}, {Country: "US"}, {Country: "DE"},
		{SIC2: 1, Country: "US"},
		{Country: "1US"},
	}
	var companies []corpus.Company
	for _, f := range variants {
		for _, emp := range []int{0, 1} {
			for _, sic := range []int{0, 1} {
				companies = append(companies, corpus.Company{Country: f.Country, Employees: emp, SIC2: sic})
			}
		}
	}
	seen := make(map[Filter]int)
	admitted := make(map[string]int)
	for i, f := range variants {
		if j, dup := seen[f]; dup {
			t.Fatalf("variants %d and %d are the same filter %+v", j, i, f)
		}
		seen[f] = i
		set := make([]byte, len(companies))
		for c := range companies {
			set[c] = '0'
			if f.Admits(&companies[c]) {
				set[c] = '1'
			}
		}
		if j, dup := admitted[string(set)]; dup {
			t.Fatalf("filters %+v and %+v admit the same companies", variants[j], f)
		}
		admitted[string(set)] = i
	}
}

// denseRecommendFromPeers is the seed's O(M)-allocation implementation,
// kept as the behavioral reference for the sparse rewrite; it reads the
// corpus's acquisitions, not the index's install-base column.
func denseRecommendFromPeers(c *corpus.Corpus, id int, peers []Match) []ProductRecommendation {
	if len(peers) == 0 {
		return nil
	}
	target := &c.Companies[id]
	owned := make(map[int]bool)
	for _, a := range target.Acquisitions {
		owned[a.Category] = true
	}
	weight := make([]float64, c.M())
	owners := make([]int, c.M())
	var totalSim float64
	for _, p := range peers {
		sim := math.Max(p.Similarity, 0)
		totalSim += sim
		for _, a := range c.Companies[p.CompanyID].Acquisitions {
			if owned[a.Category] {
				continue
			}
			weight[a.Category] += sim
			owners[a.Category]++
		}
	}
	if totalSim == 0 {
		return nil
	}
	var out []ProductRecommendation
	for cat, w := range weight {
		if owners[cat] == 0 {
			continue
		}
		out = append(out, ProductRecommendation{
			Category: cat,
			Name:     c.Catalog.Name(cat),
			Strength: w / totalSim,
			Owners:   owners[cat],
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Strength != out[b].Strength {
			return out[a].Strength > out[b].Strength
		}
		return out[a].Category < out[b].Category
	})
	return out
}

// TestRecommendFromPeersSparseMatchesDense pins the sparse rewrite to the
// dense reference gob-byte-identically — same categories, same
// accumulation order (hence the same float bits), same sort — across peer
// sets including negative similarities, duplicate peers, empty peer sets
// and all-non-positive similarity sets.
func TestRecommendFromPeersSparseMatchesDense(t *testing.T) {
	c, reps := bigFixture(80)
	ix, err := NewIndex(c, reps, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	peerSets := [][]Match{
		nil,
		{},
		{{CompanyID: 1, Similarity: 0.9}},
		{{CompanyID: 1, Similarity: -0.5}, {CompanyID: 2, Similarity: 0}},
		{{CompanyID: 7, Similarity: 0.8}, {CompanyID: 7, Similarity: 0.8}},
	}
	g := rng.New(41)
	for trial := 0; trial < 20; trial++ {
		var ps []Match
		for len(ps) < 12 {
			ps = append(ps, Match{CompanyID: g.Intn(c.N()), Similarity: g.Float64()*1.2 - 0.1})
		}
		peerSets = append(peerSets, ps)
	}
	for i, peers := range peerSets {
		for id := 0; id < 5; id++ {
			want := denseRecommendFromPeers(c, id, peers)
			got := ix.recommendFromPeers(id, peers)
			if !bytes.Equal(gobBytes(t, want), gobBytes(t, got)) {
				t.Fatalf("peer set %d target %d: sparse output differs from dense reference\nwant %v\ngot  %v",
					i, id, want, got)
			}
		}
	}
}

// BenchmarkRecommendFromPeers measures the per-query allocation profile of
// the gap accumulation; the sparse rewrite's point is dropping the two
// O(M) slices the dense version allocated per query.
func BenchmarkRecommendFromPeers(b *testing.B) {
	c, reps := bigFixture(200)
	ix, err := NewIndex(c, reps, Cosine)
	if err != nil {
		b.Fatal(err)
	}
	peers := make([]Match, 10)
	for i := range peers {
		peers[i] = Match{CompanyID: 3*i + 1, Similarity: 1 - float64(i)*0.05}
	}
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.recommendFromPeers(0, peers)
		}
	})
	b.Run("dense-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			denseRecommendFromPeers(c, 0, peers)
		}
	})
}
