package sgns

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/rng"
	"repro/internal/snapshot"
)

// Checkpoint is a complete, self-owned snapshot of an SGNS training run at
// an epoch boundary: both embedding matrices, the step counter driving the
// learning-rate decay, and RNG state. Resume continues from it to a model
// bit-identical to the uninterrupted run.
type Checkpoint struct {
	Cfg     ConfigState
	Epoch   int // completed epochs; training resumes at this epoch
	Step    int // global pair counter (drives the linear lr decay)
	In, Out []float64
	RNG     [4]uint64
}

// snapshotState deep-copies all mutable training state into a Checkpoint.
// It draws no random numbers, so hooked runs train bit-identically.
func snapshotState(cfg *Config, m *Model, epoch, step int, g *rng.RNG) *Checkpoint {
	return &Checkpoint{
		Cfg:   cfg.state(),
		Epoch: epoch,
		Step:  step,
		In:    append([]float64(nil), m.In.Data...),
		Out:   append([]float64(nil), m.Out.Data...),
		RNG:   g.State(),
	}
}

func (ck *Checkpoint) validate() error {
	if ck.Epoch < 0 || ck.Epoch > ck.Cfg.Epochs {
		return fmt.Errorf("sgns: checkpoint epoch %d outside [0,%d]", ck.Epoch, ck.Cfg.Epochs)
	}
	if ck.Step < 0 {
		return fmt.Errorf("sgns: checkpoint step %d is negative", ck.Step)
	}
	if ck.Cfg.V < 2 || ck.Cfg.Dim < 1 {
		return fmt.Errorf("sgns: checkpoint has invalid shape %dx%d", ck.Cfg.V, ck.Cfg.Dim)
	}
	if want := ck.Cfg.V * ck.Cfg.Dim; len(ck.In) != want || len(ck.Out) != want {
		return fmt.Errorf("sgns: checkpoint embedding matrices have wrong shape")
	}
	return nil
}

// Save serializes the checkpoint into a checksummed snapshot container of
// kind KindCheckpoint.
func (ck *Checkpoint) Save(w io.Writer) error {
	return snapshot.Write(w, KindCheckpoint, ck)
}

// LoadCheckpoint deserializes and validates a checkpoint written by Save.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	ck := new(Checkpoint)
	if err := snapshot.Read(r, KindCheckpoint, ck); err != nil {
		return nil, fmt.Errorf("sgns: loading checkpoint: %w", err)
	}
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
