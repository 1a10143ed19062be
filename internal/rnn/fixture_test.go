package rnn

import (
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// The files under testdata were written by the last commit that had
// internal/lstm and internal/gru as separate packages, from fixtureTrain,
// fixtureValid and fixtureSeed with CheckpointEvery 1; the .ckpt is the
// checkpoint after epoch 1 of 3. They pin that this package loads what those
// packages wrote and trains to the same bits.
var (
	fixtureTrain = [][]int{
		{0, 1, 2, 3}, {3, 2, 1, 0, 5}, {4, 4, 1}, {5, 0, 2, 2, 1, 3}, {1, 3, 5},
		{2, 0, 4, 1}, {0, 5, 3, 3}, {4, 2, 0}, {1, 1, 2, 5, 4}, {3, 0, 1, 4, 2, 5},
	}
	fixtureValid = [][]int{{0, 1, 2}, {5, 4, 3, 1}}

	fixtures = []struct {
		name string
		cfg  Config
	}{
		{"lstm_adam", Config{Cell: LSTM, V: 6, Layers: 2, Hidden: 4, Dropout: 0.2, Epochs: 3, Optimizer: "adam"}},
		{"lstm_sgd", Config{Cell: LSTM, V: 6, Layers: 2, Hidden: 4, Dropout: 0.2, Epochs: 3, Optimizer: "sgd"}},
		{"gru_adam", Config{Cell: GRU, V: 6, Layers: 2, Hidden: 3, Dropout: 0.2, Epochs: 3}},
	}
)

const fixtureSeed = 20260101

// loadFixture decodes testdata/file with load, which must still accept it.
func loadFixture[T any](t *testing.T, file string, load func(io.Reader) (T, error)) T {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	v, err := load(f)
	if err != nil {
		t.Fatalf("parent-written %s no longer loads: %v", file, err)
	}
	return v
}

// sameBits fails unless every tensor of got is Float64bits-equal to want's.
func sameBits(t *testing.T, what string, got, want *Model) {
	t.Helper()
	if got.Cell != want.Cell || got.V != want.V || got.Layers != want.Layers || got.Hidden != want.Hidden {
		t.Fatalf("%s: shape %v %d/%d/%d, want %v %d/%d/%d", what,
			got.Cell, got.V, got.Layers, got.Hidden, want.Cell, want.V, want.Layers, want.Hidden)
	}
	g, w := got.gobView(), want.gobView()
	cmp := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s has %d values, want %d", what, name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", what, name, i, a[i], b[i])
			}
		}
	}
	cmp("emb", g.Emb, w.Emb)
	cmp("wo", g.Wo, w.Wo)
	cmp("bo", g.Bo, w.Bo)
	for l := range w.Cells {
		cmp("wx", g.Cells[l].Wx, w.Cells[l].Wx)
		cmp("wh", g.Cells[l].Wh, w.Cells[l].Wh)
		cmp("b", g.Cells[l].B, w.Cells[l].B)
	}
}

func TestParentFixtures(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			want := loadFixture(t, fx.name+".model", Load)
			if want.Cell != fx.cfg.Cell {
				t.Fatalf("model file read as %v, want %v", want.Cell, fx.cfg.Cell)
			}
			ck := loadFixture(t, fx.name+".ckpt", LoadCheckpoint)
			if ck.Cfg.Cell != fx.cfg.Cell || ck.Epoch != 1 {
				t.Fatalf("checkpoint read as %v at epoch %d, want %v at epoch 1", ck.Cfg.Cell, ck.Epoch, fx.cfg.Cell)
			}
			// A GRU checkpoint of that commit has no Optimizer field at all.
			if wantAdam := fx.cfg.Optimizer != "sgd"; (len(ck.Adam) > 0) != wantAdam {
				t.Fatalf("checkpoint carries %d Adam tensors, want Adam = %v", len(ck.Adam), wantAdam)
			}

			trained, _, err := Train(fx.cfg, fixtureTrain, fixtureValid, rng.New(fixtureSeed))
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "retrained", trained, want)

			resumed, stats, err := Resume(context.Background(), ck, fixtureTrain, fixtureValid, Config{})
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "resumed", resumed, want)
			if len(stats.TrainLoss) != 3 || len(stats.ValidPerpl) != 3 {
				t.Fatalf("resumed curves have %d/%d points, want 3/3", len(stats.TrainLoss), len(stats.ValidPerpl))
			}
		})
	}
}
