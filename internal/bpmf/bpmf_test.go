package bpmf

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Rank: 0},
		{Rank: 2, Alpha: -1},
		{Rank: 2, Beta0: -1},
		{Rank: 2, Samples: -1, Burn: -1},
		{Rank: 2, ClipLo: 1, ClipHi: 0.5},
	}
	for i, cfg := range bad {
		if _, err := Train(cfg, 3, 3, []Rating{{0, 0, 1}}, rng.New(1)); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Train(Config{Rank: 2}, 0, 3, nil, rng.New(1)); err == nil {
		t.Fatal("zero users accepted")
	}
	if _, err := Train(Config{Rank: 2}, 3, 3, []Rating{{5, 0, 1}}, rng.New(1)); err == nil {
		t.Fatal("out-of-range rating accepted")
	}
}

// lowRankRatings builds a noiseless rank-1 rating matrix in [0, 1]:
// r_ij = a_i * b_j.
func lowRankRatings(n, m int, g *rng.RNG) ([]Rating, [][]float64) {
	a := make([]float64, n)
	b := make([]float64, m)
	for i := range a {
		a[i] = 0.3 + 0.7*g.Float64()
	}
	for j := range b {
		b[j] = 0.3 + 0.7*g.Float64()
	}
	var ratings []Rating
	truth := make([][]float64, n)
	for i := 0; i < n; i++ {
		truth[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			truth[i][j] = a[i] * b[j]
			ratings = append(ratings, Rating{User: i, Item: j, Value: truth[i][j]})
		}
	}
	return ratings, truth
}

func TestRecoversLowRankMatrix(t *testing.T) {
	g := rng.New(3)
	ratings, truth := lowRankRatings(30, 10, g)
	m, err := Train(Config{Rank: 2, Alpha: 25, Burn: 15, Samples: 25}, 30, 10, ratings, g)
	if err != nil {
		t.Fatal(err)
	}
	var se, n float64
	for i := 0; i < 30; i++ {
		for j := 0; j < 10; j++ {
			d := m.Predict(i, j) - truth[i][j]
			se += d * d
			n++
		}
	}
	rmse := math.Sqrt(se / n)
	if rmse > 0.08 {
		t.Fatalf("RMSE = %v on noiseless rank-1 data, want < 0.08", rmse)
	}
}

func TestHeldOutGeneralization(t *testing.T) {
	g := rng.New(5)
	ratings, _ := lowRankRatings(40, 12, g)
	// hold out every 7th rating
	var train, test []Rating
	for idx, r := range ratings {
		if idx%7 == 0 {
			test = append(test, r)
		} else {
			train = append(train, r)
		}
	}
	m, err := Train(Config{Rank: 3, Burn: 15, Samples: 25}, 40, 12, train, g)
	if err != nil {
		t.Fatal(err)
	}
	if rmse := m.RMSE(test); rmse > 0.12 {
		t.Fatalf("held-out RMSE = %v, want < 0.12", rmse)
	}
}

func TestDegeneratesOnDenseBinaryOwnership(t *testing.T) {
	// The paper's setting: only positive (value 1) ratings observed on a
	// dense ownership matrix. BPMF should predict ~1 nearly everywhere,
	// making recommendations useless (Figures 5-6).
	g := rng.New(7)
	n, mItems := 60, 15
	var ratings []Rating
	for i := 0; i < n; i++ {
		for j := 0; j < mItems; j++ {
			if g.Float64() < 0.4 { // dense ownership
				ratings = append(ratings, Rating{User: i, Item: j, Value: 1})
			}
		}
	}
	m, err := Train(Config{Rank: 5, Alpha: 25, Burn: 15, Samples: 25}, n, mItems, ratings, g)
	if err != nil {
		t.Fatal(err)
	}
	scores := m.ScoreDistribution()
	var above09 int
	for _, s := range scores {
		if s > 0.9 {
			above09++
		}
	}
	frac := float64(above09) / float64(len(scores))
	if frac < 0.8 {
		t.Fatalf("only %.1f%% of scores above 0.9; expected degenerate near-1 predictions", 100*frac)
	}
}

func TestScoresClipped(t *testing.T) {
	g := rng.New(9)
	ratings, _ := lowRankRatings(20, 8, g)
	m, err := Train(Config{Rank: 2, Burn: 5, Samples: 10}, 20, 8, ratings, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Scores.Data {
		if s < 0 || s > 1 {
			t.Fatalf("score %v outside [0,1]", s)
		}
	}
}

func TestDeterminism(t *testing.T) {
	ratings, _ := lowRankRatings(15, 6, rng.New(11))
	m1, err := Train(Config{Rank: 2, Burn: 5, Samples: 5}, 15, 6, ratings, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(Config{Rank: 2, Burn: 5, Samples: 5}, 15, 6, ratings, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Scores.Data {
		if m1.Scores.Data[i] != m2.Scores.Data[i] {
			t.Fatal("BPMF not deterministic under identical seeds")
		}
	}
}

func TestUsersWithNoRatings(t *testing.T) {
	// Cold-start rows must still sample from the prior without crashing.
	g := rng.New(13)
	ratings := []Rating{{0, 0, 1}, {0, 1, 1}, {1, 0, 1}}
	m, err := Train(Config{Rank: 2, Burn: 5, Samples: 5}, 5, 4, ratings, g)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		s := m.Predict(4, j) // user 4 has no ratings
		if math.IsNaN(s) || s < 0 || s > 1 {
			t.Fatalf("cold-start prediction invalid: %v", s)
		}
	}
}

func TestRMSEEdgeCases(t *testing.T) {
	m := &Model{N: 1, M: 1, Rank: 1}
	if !math.IsNaN(m.RMSE(nil)) {
		t.Fatal("RMSE of empty ratings should be NaN")
	}
}
