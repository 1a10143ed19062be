package hiddenlayer

import (
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestGenerateCorpusDeterministic(t *testing.T) {
	c1, err := GenerateCorpus(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := GenerateCorpus(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c1.N() != 200 || c2.N() != 200 {
		t.Fatalf("sizes %d/%d", c1.N(), c2.N())
	}
	for i := range c1.Companies {
		if c1.Companies[i].Name != c2.Companies[i].Name {
			t.Fatal("generation not deterministic")
		}
	}
	if _, err := GenerateCorpus(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestSaveLoadCorpus(t *testing.T) {
	c, err := GenerateCorpus(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 50 || got.M() != 38 {
		t.Fatalf("loaded %d/%d", got.N(), got.M())
	}
}

func TestSelectLDAPicksSmallK(t *testing.T) {
	c, err := GenerateCorpus(500, 11)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectLDA(c, []int{2, 3, 4, 12}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Model == nil || len(sel.Curve) != 4 {
		t.Fatalf("selection incomplete: %+v", sel)
	}
	// The generator plants 3 topics: the winner must be a small K, as in
	// the paper.
	if sel.Model.K > 4 {
		t.Fatalf("selected K = %d, want 2-4", sel.Model.K)
	}
	// curve entries must be finite and ordered as requested
	for i, tp := range sel.Curve {
		if math.IsNaN(tp.Perplexity) || tp.Perplexity < 1 {
			t.Fatalf("bad curve entry %+v", tp)
		}
		if i > 0 && tp.Topics <= sel.Curve[i-1].Topics {
			t.Fatal("curve order broken")
		}
	}
	if _, err := SelectLDA(c, []int{0}, 1); err == nil {
		t.Fatal("invalid grid accepted")
	}
}

func TestSystemEndToEnd(t *testing.T) {
	c, err := GenerateCorpus(300, 13)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectLDA(c, []int{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(c, sel.Model, 2)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := sys.SimilarCompanies(0, 5, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 5 {
		t.Fatalf("matches = %d", len(matches))
	}
	for _, m := range matches {
		if m.CompanyID == 0 {
			t.Fatal("self in results")
		}
	}
	recs, err := sys.RecommendProducts(0, 10, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	owned := map[int]bool{}
	for _, a := range c.Companies[0].Acquisitions {
		owned[a.Category] = true
	}
	for _, r := range recs {
		if owned[r.Category] {
			t.Fatalf("recommended owned product %s", r.Name)
		}
	}
	prospects, err := sys.Whitespace([]int{0, 1, 2}, 5, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prospects) != 5 {
		t.Fatalf("prospects = %d", len(prospects))
	}
	rep, err := sys.Representation(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != 3 {
		t.Fatalf("representation dim = %d", len(rep))
	}
	var sum float64
	for _, v := range rep {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("representation not a topic mixture: sum %v", sum)
	}
	if _, err := sys.Representation(999); err == nil {
		t.Fatal("bad id accepted")
	}
	scores := sys.ScoreProducts([]int{0, 1, 2})
	if len(scores) != 38 {
		t.Fatalf("scores = %d", len(scores))
	}
	var total float64
	for _, s := range scores {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("scores not a distribution: %v", total)
	}
}

func TestNewSystemValidation(t *testing.T) {
	c, err := GenerateCorpus(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(c, &LDAModel{K: 2, V: 5}, 1); err == nil {
		t.Fatal("vocabulary mismatch accepted")
	}
	sel, err := SelectLDA(c, []int{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Companies[3].ID = 7
	if _, err := NewSystem(c, sel.Model, 1); err == nil || !strings.Contains(err.Error(), "row 3 has id 7") {
		t.Fatalf("company id 7 on row 3: NewSystem error %v, want the id check's", err)
	}
}

// TestScoreProductsRepeatable: ScoreProducts is a function of the owned set,
// not of earlier calls, and concurrent calls share no generator (run under
// -race to check the latter).
func TestScoreProductsRepeatable(t *testing.T) {
	c, err := GenerateCorpus(200, 13)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectLDA(c, []int{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(c, sel.Model, 2)
	if err != nil {
		t.Fatal(err)
	}
	owned := []int{0, 5, 9, 14, 20, 30}
	want := sys.ScoreProducts(owned)
	if got := sys.ScoreProducts(owned); !slices.Equal(got, want) {
		t.Fatalf("second call scored %v, first %v", got, want)
	}
	var wg sync.WaitGroup
	got := make([][]float64, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = sys.ScoreProducts(owned)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if !slices.Equal(g, want) {
			t.Fatalf("concurrent call %d scored %v, want %v", i, g, want)
		}
	}
}
