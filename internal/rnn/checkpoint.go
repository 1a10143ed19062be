package rnn

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/rng"
	"repro/internal/snapshot"
)

// AdamState is the serialized first/second moment vectors of one tensor's
// Adam optimizer.
type AdamState struct {
	M, V []float64
}

// Checkpoint is a complete, self-owned snapshot of a training run at an
// epoch boundary: parameters, optimizer moments, learning curves and RNG
// state. Resume continues from it to a model bit-identical to the
// uninterrupted run.
type Checkpoint struct {
	Cfg        ConfigState
	Epoch      int // completed epochs; training resumes at this epoch
	Step       int // global Adam step counter
	Params     gobModel
	Adam       map[string]AdamState // nil when Cfg.Optimizer == "sgd"
	TrainLoss  []float64
	ValidPerpl []float64
	RNG        [4]uint64
}

// snapshotState deep-copies all mutable training state into a Checkpoint.
// It draws no random numbers, so hooked runs train bit-identically.
func snapshotState(cfg *Config, m *Model, opt optimizer, epoch, step int, stats TrainStats, g *rng.RNG) *Checkpoint {
	ck := &Checkpoint{
		Cfg:        cfg.state(),
		Epoch:      epoch,
		Step:       step,
		Params:     m.gobCopy(),
		TrainLoss:  append([]float64(nil), stats.TrainLoss...),
		ValidPerpl: append([]float64(nil), stats.ValidPerpl...),
		RNG:        g.State(),
	}
	if cfg.Optimizer == "adam" {
		ck.Adam = make(map[string]AdamState, len(opt))
		for k, a := range opt {
			ck.Adam[k] = AdamState{
				M: append([]float64(nil), a.m...),
				V: append([]float64(nil), a.v...),
			}
		}
	}
	return ck
}

// restore copies saved Adam moments into a freshly built optimizer,
// rejecting missing or misshapen tensors.
func (opt optimizer) restore(saved map[string]AdamState) error {
	if len(saved) != len(opt) {
		return fmt.Errorf("rnn: checkpoint has %d optimizer tensors, model needs %d", len(saved), len(opt))
	}
	for k, a := range opt {
		s, ok := saved[k]
		if !ok {
			return fmt.Errorf("rnn: checkpoint missing optimizer state for %q", k)
		}
		if len(s.M) != len(a.m) || len(s.V) != len(a.v) {
			return fmt.Errorf("rnn: optimizer state %q has wrong shape", k)
		}
		copy(a.m, s.M)
		copy(a.v, s.V)
	}
	return nil
}

func (ck *Checkpoint) validate() error {
	if ck.Epoch < 0 || ck.Epoch > ck.Cfg.Epochs {
		return fmt.Errorf("rnn: checkpoint epoch %d outside [0,%d]", ck.Epoch, ck.Cfg.Epochs)
	}
	if ck.Step < 0 {
		return fmt.Errorf("rnn: checkpoint step %d is negative", ck.Step)
	}
	if ck.Params.V != ck.Cfg.V || ck.Params.Layers != ck.Cfg.Layers || ck.Params.Hidden != ck.Cfg.Hidden {
		return fmt.Errorf("rnn: checkpoint parameters (%d/%d/%d) do not match its config (%d/%d/%d)",
			ck.Params.V, ck.Params.Layers, ck.Params.Hidden, ck.Cfg.V, ck.Cfg.Layers, ck.Cfg.Hidden)
	}
	if _, err := ck.Params.model(ck.Cfg.Cell); err != nil {
		return err
	}
	for k, s := range ck.Adam {
		if len(s.M) != len(s.V) {
			return fmt.Errorf("rnn: optimizer state %q has mismatched moment lengths", k)
		}
	}
	return nil
}

// Save serializes the checkpoint into a checksummed snapshot container of
// kind ck.Cfg.Cell.KindCheckpoint().
func (ck *Checkpoint) Save(w io.Writer) error {
	return snapshot.Write(w, ck.Cfg.Cell.KindCheckpoint(), ck)
}

// LoadCheckpoint deserializes and validates a checkpoint of either cell
// written by Save; the file's snapshot kind says which.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	ck := new(Checkpoint)
	cell, err := readSnapshot(r, Cell.KindCheckpoint, ck)
	if err != nil {
		return nil, fmt.Errorf("rnn: loading checkpoint: %w", err)
	}
	ck.Cfg.Cell = cell
	if err := ck.validate(); err != nil {
		return nil, err
	}
	return ck, nil
}

// gob assigns wire type ids from a process-global registry at first encode,
// so a model encoded after a checkpoint would carry different type ids than
// one encoded in a fresh process. Pin this package's wire types in a fixed
// order at init so model files are byte-identical regardless of what else
// the process encoded first.
func init() {
	enc := gob.NewEncoder(io.Discard)
	_ = enc.Encode(gobModel{})
	_ = enc.Encode(Checkpoint{})
}
