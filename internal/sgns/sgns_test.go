package sgns

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// twoTopicDocs: words 0-4 co-occur; words 5-9 co-occur; never mixed.
func twoTopicDocs(n int, g *rng.RNG) [][]int {
	docs := make([][]int, n)
	for d := range docs {
		base := 0
		if d%2 == 1 {
			base = 5
		}
		ln := 3 + g.Intn(3)
		seen := map[int]bool{}
		var doc []int
		for len(doc) < ln {
			w := base + g.Intn(5)
			if !seen[w] {
				seen[w] = true
				doc = append(doc, w)
			}
		}
		docs[d] = doc
	}
	return docs
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{V: 1, Dim: 4},
		{V: 5, Dim: 0},
		{V: 5, Dim: 4, Epochs: -1},
		{V: 5, Dim: 4, LearnRate: -0.1},
	}
	for i, cfg := range bad {
		if _, err := Train(cfg, [][]int{{0, 1}}, rng.New(1)); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Train(Config{V: 5, Dim: 4}, [][]int{{0, 9}}, rng.New(1)); err == nil {
		t.Fatal("bad token accepted")
	}
	if _, err := Train(Config{V: 5, Dim: 4}, [][]int{{0}}, rng.New(1)); err == nil {
		t.Fatal("pairless corpus accepted")
	}
}

func TestCooccurringProductsEmbedNearby(t *testing.T) {
	g := rng.New(3)
	docs := twoTopicDocs(500, g)
	m, err := Train(Config{V: 10, Dim: 8, Epochs: 6}, docs, g)
	if err != nil {
		t.Fatal(err)
	}
	// mean same-topic similarity must exceed mean cross-topic similarity
	var same, cross float64
	var ns, nc int
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			s := m.Similarity(a, b)
			if (a < 5) == (b < 5) {
				same += s
				ns++
			} else {
				cross += s
				nc++
			}
		}
	}
	if same/float64(ns) <= cross/float64(nc)+0.2 {
		t.Fatalf("embeddings not separated: same %.3f vs cross %.3f", same/float64(ns), cross/float64(nc))
	}
}

func TestNeighbors(t *testing.T) {
	g := rng.New(5)
	docs := twoTopicDocs(500, g)
	m, err := Train(Config{V: 10, Dim: 8, Epochs: 6}, docs, g)
	if err != nil {
		t.Fatal(err)
	}
	nb := m.Neighbors(0, 4)
	if len(nb) != 4 {
		t.Fatalf("neighbors = %d", len(nb))
	}
	inTopic := 0
	for _, o := range nb {
		if o == 0 {
			t.Fatal("self in neighbors")
		}
		if o < 5 {
			inTopic++
		}
	}
	if inTopic < 3 {
		t.Fatalf("only %d/4 neighbors from the same topic", inTopic)
	}
	if got := m.Neighbors(0, 100); len(got) != 9 {
		t.Fatalf("clamped neighbors = %d", len(got))
	}
}

func TestCompanyEmbeddingPooling(t *testing.T) {
	g := rng.New(7)
	docs := twoTopicDocs(400, g)
	m, err := Train(Config{V: 10, Dim: 6, Epochs: 5}, docs, g)
	if err != nil {
		t.Fatal(err)
	}
	// companies from different topics should have distant embeddings
	a := m.CompanyEmbedding([]int{0, 1, 2}, nil)
	b := m.CompanyEmbedding([]int{5, 6, 7}, nil)
	a2 := m.CompanyEmbedding([]int{1, 2, 3}, nil)
	if mat.CosineSim(a, a2) <= mat.CosineSim(a, b) {
		t.Fatal("company pooling does not preserve topic structure")
	}
	// empty company: zero vector
	z := m.CompanyEmbedding(nil, nil)
	for _, v := range z {
		if v != 0 {
			t.Fatal("empty company embedding not zero")
		}
	}
	// weighted pooling with a one-hot weight equals that product's embedding
	w := make([]float64, 10)
	w[2] = 3
	got := m.CompanyEmbedding([]int{0, 2}, w)
	want := m.Embedding(2)
	// token 0 has weight 0, so pooling = embedding(2)
	for k := range got {
		if math.Abs(got[k]-want[k]) > 1e-12 {
			t.Fatal("weighted pooling wrong")
		}
	}
	// batch version matches singles
	batch := m.CompanyEmbeddings([][]int{{0, 1, 2}, {5, 6, 7}}, nil)
	for k := 0; k < 6; k++ {
		if math.Abs(batch.At(0, k)-a[k]) > 1e-12 {
			t.Fatal("batch pooling differs")
		}
	}
}

func TestDeterminism(t *testing.T) {
	docs := twoTopicDocs(100, rng.New(9))
	m1, err := Train(Config{V: 10, Dim: 4, Epochs: 2}, docs, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(Config{V: 10, Dim: 4, Epochs: 2}, docs, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(m1.In, m2.In, 0) {
		t.Fatal("training not deterministic")
	}
}

func TestEmbeddingCopies(t *testing.T) {
	docs := twoTopicDocs(100, rng.New(13))
	m, err := Train(Config{V: 10, Dim: 4, Epochs: 1}, docs, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	e := m.Embedding(0)
	e[0] = 999
	if m.In.At(0, 0) == 999 {
		t.Fatal("Embedding leaked internal storage")
	}
	pe := m.ProductEmbeddings()
	pe.Set(0, 0, -999)
	if m.In.At(0, 0) == -999 {
		t.Fatal("ProductEmbeddings leaked internal storage")
	}
}
