package rnn_test

// The black-box suite of the package: every test runs once per cell type, as
// a subtest named after the cell, through the exported API only.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/rnn"
)

// bothCells runs body once for the LSTM and once for the GRU.
func bothCells(t *testing.T, body func(t *testing.T, cell rnn.Cell)) {
	for _, cell := range []rnn.Cell{rnn.LSTM, rnn.GRU} {
		t.Run(cell.String(), func(t *testing.T) { body(t, cell) })
	}
}

// untrained returns cfg's model as good as freshly initialised: one epoch
// over one token at a step size that cannot move a weight.
func untrained(t *testing.T, cfg rnn.Config, seed int64) *rnn.Model {
	t.Helper()
	cfg.Epochs, cfg.LearnRate = 1, 1e-300
	m, _, err := rnn.Train(cfg, [][]int{{0}}, nil, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		bad := []rnn.Config{
			{V: 0, Layers: 1, Hidden: 4},
			{V: 5, Layers: 0, Hidden: 4},
			{V: 5, Layers: 4, Hidden: 4},
			{V: 5, Layers: 1, Hidden: 0},
			{V: 5, Layers: 1, Hidden: 4, Dropout: 1},
			{V: 5, Layers: 1, Hidden: 4, Dropout: -0.5},
			{V: 5, Layers: 1, Hidden: 4, Epochs: -2},
		}
		for i, cfg := range bad {
			cfg.Cell = cell
			if _, _, err := rnn.Train(cfg, [][]int{{0, 1}}, nil, rng.New(1)); err == nil {
				t.Fatalf("case %d: invalid config accepted", i)
			}
		}
		ok := rnn.Config{Cell: cell, V: 3, Layers: 1, Hidden: 4}
		for _, seqs := range [][][]int{{{0, 9}}, {{9}}} {
			if _, _, err := rnn.Train(ok, seqs, nil, rng.New(1)); err == nil {
				t.Fatalf("bad train token accepted in %v", seqs)
			}
		}
		if _, _, err := rnn.Train(ok, [][]int{{0, 1}}, [][]int{{7}}, rng.New(1)); err == nil {
			t.Fatal("bad valid token accepted")
		}
		if _, _, err := rnn.Train(ok, [][]int{{}}, nil, rng.New(1)); err == nil {
			t.Fatal("empty corpus accepted")
		}
	})
}

func TestLearnsDeterministicSequence(t *testing.T) {
	// All training sequences are 0,1,2,3. A working cell should drive
	// perplexity toward 1 and predict each next token confidently.
	seqs := make([][]int, 60)
	for i := range seqs {
		seqs[i] = []int{0, 1, 2, 3}
	}
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		m, stats, err := rnn.Train(rnn.Config{Cell: cell, V: 4, Layers: 1, Hidden: 12, Epochs: 10, LearnRate: 1e-2}, seqs, nil, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if p := m.Perplexity(seqs); p > 1.4 {
			t.Fatalf("perplexity = %v on deterministic data, want ~1", p)
		}
		d := m.NextDist([]int{0, 1})
		if mat.ArgMax(d) != 2 {
			t.Fatalf("after (0,1) the argmax should be 2, dist = %v", d)
		}
		// learning curve should improve
		first, last := stats.TrainLoss[0], stats.TrainLoss[len(stats.TrainLoss)-1]
		if last >= first {
			t.Fatalf("training loss did not decrease: %v -> %v", first, last)
		}
	})
}

func TestCapturesOrderUnlikeUnigram(t *testing.T) {
	// Alternating 0,1,0,1 vs 1,0,1,0 — next token is fully determined by
	// the previous one.
	var seqs [][]int
	for i := 0; i < 40; i++ {
		seqs = append(seqs, []int{0, 1, 0, 1, 0, 1})
		seqs = append(seqs, []int{1, 0, 1, 0, 1, 0})
	}
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		m, _, err := rnn.Train(rnn.Config{Cell: cell, V: 2, Layers: 1, Hidden: 8, Epochs: 8, LearnRate: 1e-2}, seqs, nil, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		d0 := m.NextDist([]int{1, 0})
		d1 := m.NextDist([]int{0, 1})
		if d0[1] < 0.8 || d1[0] < 0.8 {
			t.Fatalf("alternation not learned: P(1|..0)=%v P(0|..1)=%v", d0[1], d1[0])
		}
	})
}

func TestValidationCurveRecorded(t *testing.T) {
	seqs := [][]int{{0, 1, 2}, {2, 1, 0}, {0, 2, 1}}
	valid := [][]int{{0, 1, 2}}
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		_, stats, err := rnn.Train(rnn.Config{Cell: cell, V: 3, Layers: 1, Hidden: 4, Epochs: 3}, seqs, valid, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.ValidPerpl) != 3 {
			t.Fatalf("valid curve length = %d, want 3", len(stats.ValidPerpl))
		}
		for _, p := range stats.ValidPerpl {
			if p < 1 || math.IsNaN(p) {
				t.Fatalf("invalid perplexity %v", p)
			}
		}
	})
}

func TestNextDistIsDistribution(t *testing.T) {
	seqs := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}}
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		m, _, err := rnn.Train(rnn.Config{Cell: cell, V: 5, Layers: 2, Hidden: 6, Epochs: 2}, seqs, nil, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		for _, hist := range [][]int{nil, {0}, {0, 1, 2}} {
			d := m.NextDist(hist)
			var s float64
			for _, p := range d {
				if p < 0 || p > 1 {
					t.Fatalf("bad probability %v", p)
				}
				s += p
			}
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("NextDist(%v) sums to %v", hist, s)
			}
		}
	})
}

// TestDropoutTraining: training under dropout converges, at 0.3 for the LSTM
// and at 0.4 for the GRU.
func TestDropoutTraining(t *testing.T) {
	seqs := make([][]int, 30)
	for i := range seqs {
		seqs[i] = []int{0, 1, 2, 3}
	}
	dropout := map[rnn.Cell]float64{rnn.LSTM: 0.3, rnn.GRU: 0.4}
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		m, _, err := rnn.Train(rnn.Config{Cell: cell, V: 4, Layers: 2, Hidden: 8, Epochs: 4, Dropout: dropout[cell], LearnRate: 1e-2}, seqs, nil, rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		if p := m.Perplexity(seqs); p > 3 || math.IsNaN(p) {
			t.Fatalf("dropout training diverged: perplexity %v", p)
		}
	})
}

func TestEmbedAndProductEmbeddings(t *testing.T) {
	seqs := [][]int{{0, 1, 2}, {2, 1, 0}}
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		m, _, err := rnn.Train(rnn.Config{Cell: cell, V: 3, Layers: 1, Hidden: 5, Epochs: 2}, seqs, nil, rng.New(15))
		if err != nil {
			t.Fatal(err)
		}
		e := m.Embed([]int{0, 1})
		if len(e) != 5 {
			t.Fatalf("Embed length = %d", len(e))
		}
		// must be a copy, not a view into state
		e[0] = 999
		e2 := m.Embed([]int{0, 1})
		if e2[0] == 999 {
			t.Fatal("Embed returned shared storage")
		}
		pe := m.ProductEmbeddings()
		if pe.Rows != 3 || pe.Cols != 5 {
			t.Fatalf("ProductEmbeddings shape %dx%d", pe.Rows, pe.Cols)
		}
		// deterministic histories give deterministic embeddings
		e3 := m.Embed([]int{0, 1})
		for i := range e2 {
			if e2[i] != e3[i] {
				t.Fatal("Embed not deterministic")
			}
		}
	})
}

func TestPerplexityEdgeCases(t *testing.T) {
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		m := untrained(t, rnn.Config{Cell: cell, V: 3, Layers: 1, Hidden: 4, InitScale: 0.01}, 17)
		if !math.IsInf(m.Perplexity(nil), 1) {
			t.Fatal("no-token perplexity should be +Inf")
		}
		// untrained near-zero weights => near-uniform => perplexity ~ V
		if p := m.Perplexity([][]int{{0, 1, 2}}); math.Abs(p-3) > 0.3 {
			t.Fatalf("untrained perplexity = %v, want ~3", p)
		}
	})
}

// TestParameterCount: the LSTM's count is dominated by its cells, as the
// paper's lower bound says; the GRU's recurrent block is 3/4 of the LSTM's.
func TestParameterCount(t *testing.T) {
	const h = 100
	t.Run("lstm", func(t *testing.T) {
		m := untrained(t, rnn.Config{Cell: rnn.LSTM, V: 38, Layers: 1, Hidden: h}, 19)
		// The paper's lower bound: nc*(4nc+no) = 100*(400+100) = 50000.
		if m.ParameterCount() < 50000 {
			t.Fatalf("ParameterCount = %d, want >= 50000", m.ParameterCount())
		}
	})
	t.Run("gru", func(t *testing.T) {
		m := untrained(t, rnn.Config{Cell: rnn.GRU, V: 38, Layers: 1, Hidden: h}, 1)
		// GRU recurrent block: 3/4 of the LSTM's 8H² ≈ 60000 + embeddings.
		lstmCellParams := 8*h*h + 4*h
		gruCellParams := 6*h*h + 3*h
		if got := m.ParameterCount(); got >= lstmCellParams+39*h+38*h+38 {
			t.Fatalf("GRU parameter count %d not below LSTM equivalent", got)
		}
		if got := m.ParameterCount() - len(m.Emb.Data) - len(m.Wo.Data) - len(m.Bo); got != gruCellParams {
			t.Fatalf("cell parameters = %d, want %d", got, gruCellParams)
		}
	})
}

func TestDeterministicTraining(t *testing.T) {
	seqs := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}}
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		cfg := rnn.Config{Cell: cell, V: 3, Layers: 1, Hidden: 4, Epochs: 2}
		m1, _, err := rnn.Train(cfg, seqs, nil, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		m2, _, err := rnn.Train(cfg, seqs, nil, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		if !mat.Equal(m1.Emb, m2.Emb, 0) || !mat.Equal(m1.Wo, m2.Wo, 0) {
			t.Fatal("training not deterministic under identical seeds")
		}
	})
}

func TestSaveLoadRoundTrip(t *testing.T) {
	seqs := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}}
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		m, _, err := rnn.Train(rnn.Config{Cell: cell, V: 4, Layers: 2, Hidden: 6, Epochs: 2}, seqs, nil, rng.New(23))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := rnn.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// identical predictions
		for _, hist := range [][]int{nil, {0}, {1, 2, 3}} {
			a, b := m.NextDist(hist), got.NextDist(hist)
			for i := range a {
				if math.Abs(a[i]-b[i]) > 1e-15 {
					t.Fatalf("loaded model predicts differently at %v", hist)
				}
			}
		}
		if _, err := rnn.Load(bytes.NewBufferString("junk")); err == nil {
			t.Fatal("garbage accepted")
		}
	})
}

func TestNextDistPanicsOnBadToken(t *testing.T) {
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		m := untrained(t, rnn.Config{Cell: cell, V: 3, Layers: 1, Hidden: 4}, 25)
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		m.NextDist([]int{5})
	})
}
