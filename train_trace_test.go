package hiddenlayer

import (
	"bytes"
	"context"
	"io"
	"testing"

	"repro/internal/bpmf"
	"repro/internal/lda"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/rnn"
	"repro/internal/sgns"
	"repro/internal/trace"
)

// TestTracedTrainingGobIdenticalWithSpanTree ranges over the five iteratively
// trained families: a run under an active trace, checkpointing after every
// iteration and reporting progress, writes the bare run's bytes, and its
// trace holds one <name>.train.<unit> span per iteration and one
// <name>.train.checkpoint span per iteration but the last.
func TestTracedTrainingGobIdenticalWithSpanTree(t *testing.T) {
	c, err := GenerateCorpus(60, 5)
	if err != nil {
		t.Fatal(err)
	}
	sets, seqs := c.Sets(), c.Sequences()
	var ratings []bpmf.Rating
	for i, set := range sets {
		for _, cat := range set {
			ratings = append(ratings, bpmf.Rating{User: i, Item: cat, Value: 1})
		}
	}
	save := func(m interface{ Save(io.Writer) error }, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rnnRun := func(cell rnn.Cell) func(context.Context, bool) []byte {
		return func(ctx context.Context, hooked bool) []byte {
			cfg := rnn.Config{Cell: cell, V: c.M(), Layers: 1, Hidden: 6, Epochs: 3, Dropout: 0.2}
			cfg.Progress, cfg.Checkpoint, cfg.CheckpointEvery = hooks[*rnn.Checkpoint](hooked)
			m, _, err := rnn.TrainContext(ctx, cfg, seqs, nil, rng.New(7))
			return save(m, err)
		}
	}
	families := []struct {
		name, unit string
		total      int
		run        func(ctx context.Context, hooked bool) []byte
	}{
		{"lda", "sweep", 6, func(ctx context.Context, hooked bool) []byte {
			cfg := lda.Config{Topics: 3, V: c.M(), BurnIn: 2, Iterations: 4, SampleLag: 2}
			cfg.Progress, cfg.Checkpoint, cfg.CheckpointEvery = hooks[*lda.Checkpoint](hooked)
			return save(lda.TrainContext(ctx, cfg, sets, nil, rng.New(7)))
		}},
		{"lstm", "epoch", 3, rnnRun(rnn.LSTM)},
		{"gru", "epoch", 3, rnnRun(rnn.GRU)},
		{"sgns", "epoch", 4, func(ctx context.Context, hooked bool) []byte {
			cfg := sgns.Config{V: c.M(), Dim: 4, Epochs: 4}
			cfg.Progress, cfg.Checkpoint, cfg.CheckpointEvery = hooks[*sgns.Checkpoint](hooked)
			return save(sgns.TrainContext(ctx, cfg, sets, rng.New(7)))
		}},
		{"bpmf", "sweep", 5, func(ctx context.Context, hooked bool) []byte {
			cfg := bpmf.Config{Rank: 3, Burn: 2, Samples: 3}
			cfg.Progress, cfg.Checkpoint, cfg.CheckpointEvery = hooks[*bpmf.Checkpoint](hooked)
			return save(bpmf.TrainContext(ctx, cfg, len(sets), c.M(), ratings, rng.New(7)))
		}},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			bare := fam.run(context.Background(), false)

			tracer := trace.NewTracer(4)
			tracer.SetEnabled(true)
			tracer.SetSampleRate(1)
			ctx, root := tracer.Start(context.Background(), "test.train")
			traced := fam.run(ctx, true)
			root.End()
			if !bytes.Equal(bare, traced) {
				t.Fatal("traced, checkpointed, progress-reporting run is not byte-identical to the bare run")
			}

			tj, ok := tracer.Get(root.TraceID().String())
			if !ok {
				t.Fatal("trace not retained")
			}
			counts := map[string]int{}
			for _, sp := range tj.Root.Children {
				counts[sp.Name]++
				if len(sp.Attrs) != 1 || sp.Attrs[0].Key != fam.unit {
					t.Fatalf("span %s attrs = %v, want the one attribute %q", sp.Name, sp.Attrs, fam.unit)
				}
			}
			iter, ckpt := fam.name+".train."+fam.unit, fam.name+".train.checkpoint"
			if counts[iter] != fam.total || counts[ckpt] != fam.total-1 || len(counts) != 2 {
				t.Fatalf("span counts = %v, want %d %s and %d %s", counts, fam.total, iter, fam.total-1, ckpt)
			}
		})
	}
}

// hooks returns the three Config hook fields of a run: Progress, Checkpoint
// and CheckpointEvery 1 when hooked, all zero for a bare run.
func hooks[CK any](hooked bool) (obs.Progress, func(CK) error, int) {
	if !hooked {
		return nil, nil, 0
	}
	return func(obs.ProgressEvent) {}, func(CK) error { return nil }, 1
}
