package rnn_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/rng"
	"repro/internal/rnn"
)

// ckSeqs builds a small varied corpus for checkpoint tests.
func ckSeqs(n, v int, g *rng.RNG) [][]int {
	seqs := make([][]int, n)
	for i := range seqs {
		seqs[i] = make([]int, 3+g.Intn(5))
		for j := range seqs[i] {
			seqs[i][j] = g.Intn(v)
		}
	}
	return seqs
}

func modelBytes(t *testing.T, m *rnn.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointHookDoesNotPerturbTraining(t *testing.T) {
	seqs := ckSeqs(20, 5, rng.New(4))
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		cfg := rnn.Config{Cell: cell, V: 5, Layers: 1, Hidden: 6, Epochs: 6, Dropout: 0.2}
		plain, _, err := rnn.Train(cfg, seqs, nil, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		hooked := cfg
		calls := 0
		hooked.CheckpointEvery = 2
		hooked.Checkpoint = func(*rnn.Checkpoint) error { calls++; return nil }
		ckRun, _, err := rnn.Train(hooked, seqs, nil, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		if calls == 0 {
			t.Fatal("checkpoint hook never invoked")
		}
		if !bytes.Equal(modelBytes(t, plain), modelBytes(t, ckRun)) {
			t.Fatal("gob output differs with Checkpoint hook installed")
		}
	})
}

// TestResumeMatchesUninterruptedRun: the LSTM resumes under both optimizers,
// the GRU under Adam.
func TestResumeMatchesUninterruptedRun(t *testing.T) {
	seqs := ckSeqs(25, 5, rng.New(7))
	valid := ckSeqs(5, 5, rng.New(8))
	optimizers := map[rnn.Cell][]string{rnn.LSTM: {"adam", "sgd"}, rnn.GRU: {"adam"}}
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		for _, optName := range optimizers[cell] {
			t.Run(optName, func(t *testing.T) {
				cfg := rnn.Config{Cell: cell, V: 5, Layers: 2, Hidden: 5, Epochs: 8, Dropout: 0.1, Optimizer: optName}
				straight, straightStats, err := rnn.Train(cfg, seqs, valid, rng.New(99))
				if err != nil {
					t.Fatal(err)
				}

				var mid *rnn.Checkpoint
				hooked := cfg
				hooked.CheckpointEvery = 3
				hooked.Checkpoint = func(ck *rnn.Checkpoint) error {
					if mid == nil {
						mid = ck
					}
					return nil
				}
				if _, _, err := rnn.Train(hooked, seqs, valid, rng.New(99)); err != nil {
					t.Fatal(err)
				}
				if mid == nil {
					t.Fatal("no checkpoint captured")
				}
				// Round-trip through the serialized form, as a real resume would.
				var buf bytes.Buffer
				if err := mid.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := rnn.LoadCheckpoint(&buf)
				if err != nil {
					t.Fatal(err)
				}
				resumed, resumedStats, err := rnn.Resume(context.Background(), loaded, seqs, valid, rnn.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(modelBytes(t, straight), modelBytes(t, resumed)) {
					t.Fatal("resumed model differs from uninterrupted run")
				}
				if len(resumedStats.TrainLoss) != len(straightStats.TrainLoss) ||
					len(resumedStats.ValidPerpl) != len(straightStats.ValidPerpl) {
					t.Fatal("resumed stats have wrong lengths")
				}
			})
		}
	})
}

func TestCancellationWritesFinalCheckpoint(t *testing.T) {
	seqs := ckSeqs(20, 4, rng.New(2))
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		cfg := rnn.Config{Cell: cell, V: 4, Layers: 1, Hidden: 5, Epochs: 10}
		straight, _, err := rnn.Train(cfg, seqs, nil, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		var last *rnn.Checkpoint
		calls := 0
		cfg.CheckpointEvery = 2
		cfg.Checkpoint = func(ck *rnn.Checkpoint) error {
			last = ck
			calls++
			if calls == 1 {
				cancel() // cancel mid-run; trainer must flush one final checkpoint
			}
			return nil
		}
		_, _, err = rnn.TrainContext(ctx, cfg, seqs, nil, rng.New(1))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if calls < 2 {
			t.Fatalf("cancellation must write a final checkpoint (calls = %d)", calls)
		}
		resumed, _, err := rnn.Resume(context.Background(), last, seqs, nil, rnn.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(modelBytes(t, straight), modelBytes(t, resumed)) {
			t.Fatal("resume after cancellation differs from uninterrupted run")
		}
	})
}

// midCheckpoint trains cell's small checkpointing model and returns the last
// checkpoint it wrote.
func midCheckpoint(t *testing.T, cell rnn.Cell, seqs [][]int) *rnn.Checkpoint {
	t.Helper()
	cfg := rnn.Config{Cell: cell, V: 4, Layers: 1, Hidden: 4, Epochs: 6, CheckpointEvery: 2}
	var mid *rnn.Checkpoint
	cfg.Checkpoint = func(ck *rnn.Checkpoint) error { mid = ck; return nil }
	if _, _, err := rnn.Train(cfg, seqs, nil, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	return mid
}

func TestResumeRejectsWrongCorpus(t *testing.T) {
	seqs := ckSeqs(15, 4, rng.New(2))
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		mid := midCheckpoint(t, cell, seqs)
		bad := [][]int{{0, 9}} // token outside the checkpoint's vocabulary
		if _, _, err := rnn.Resume(context.Background(), mid, bad, nil, rnn.Config{}); err == nil {
			t.Fatal("resume with out-of-vocabulary corpus must fail")
		}
	})
}

func TestCheckpointHookErrorAbortsTraining(t *testing.T) {
	seqs := ckSeqs(15, 4, rng.New(2))
	boom := errors.New("disk full")
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		cfg := rnn.Config{Cell: cell, V: 4, Layers: 1, Hidden: 4, Epochs: 6, CheckpointEvery: 2}
		cfg.Checkpoint = func(*rnn.Checkpoint) error { return boom }
		if _, _, err := rnn.Train(cfg, seqs, nil, rng.New(1)); !errors.Is(err, boom) {
			t.Fatalf("want hook error surfaced, got %v", err)
		}
	})
}

func TestLoadCheckpointRejectsCorruptState(t *testing.T) {
	seqs := ckSeqs(15, 4, rng.New(2))
	bothCells(t, func(t *testing.T, cell rnn.Cell) {
		mid := midCheckpoint(t, cell, seqs)

		bad := *mid
		bad.Params.Emb = mid.Params.Emb[:3] // truncated tensor
		var buf bytes.Buffer
		if err := bad.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := rnn.LoadCheckpoint(&buf); err == nil {
			t.Fatal("truncated embedding tensor accepted")
		}

		bad2 := *mid
		bad2.Epoch = 99 // beyond the schedule
		buf.Reset()
		if err := bad2.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := rnn.LoadCheckpoint(&buf); err == nil {
			t.Fatal("out-of-schedule epoch accepted")
		}
	})
}
