package bpmf

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// Checkpoint is a complete, self-owned snapshot of a BPMF Gibbs run at a
// sweep boundary: both factor matrices, the posterior-score accumulator and
// RNG state. Resume continues from it to a model bit-identical to the
// uninterrupted run.
type Checkpoint struct {
	Cfg      ConfigState
	N, M     int
	Sweep    int // completed sweeps; sampling resumes at this sweep
	U, V     []float64
	ScoreAcc []float64
	Kept     int // samples accumulated into ScoreAcc so far
	RNG      [4]uint64
}

// snapshotState deep-copies all mutable sampler state into a Checkpoint.
// It draws no random numbers, so hooked runs sample bit-identically.
func snapshotState(cfg *Config, u, v, scoreAcc *mat.Matrix, kept, sweep int, g *rng.RNG) *Checkpoint {
	return &Checkpoint{
		Cfg:      cfg.state(),
		N:        u.Rows,
		M:        v.Rows,
		Sweep:    sweep,
		U:        append([]float64(nil), u.Data...),
		V:        append([]float64(nil), v.Data...),
		ScoreAcc: append([]float64(nil), scoreAcc.Data...),
		Kept:     kept,
		RNG:      g.State(),
	}
}

func (ck *Checkpoint) validate() error {
	total := ck.Cfg.Burn + ck.Cfg.Samples
	if ck.N < 1 || ck.M < 1 || ck.Cfg.Rank < 1 {
		return fmt.Errorf("bpmf: checkpoint has invalid dimensions %dx%d rank %d", ck.N, ck.M, ck.Cfg.Rank)
	}
	if ck.Sweep < 0 || ck.Sweep > total {
		return fmt.Errorf("bpmf: checkpoint sweep %d outside [0,%d]", ck.Sweep, total)
	}
	if ck.Kept < 0 || ck.Kept > ck.Cfg.Samples {
		return fmt.Errorf("bpmf: checkpoint kept %d outside [0,%d]", ck.Kept, ck.Cfg.Samples)
	}
	if len(ck.U) != ck.N*ck.Cfg.Rank || len(ck.V) != ck.M*ck.Cfg.Rank {
		return fmt.Errorf("bpmf: checkpoint factor matrices have wrong shape")
	}
	if len(ck.ScoreAcc) != ck.N*ck.M {
		return fmt.Errorf("bpmf: checkpoint score accumulator has %d entries, want %d", len(ck.ScoreAcc), ck.N*ck.M)
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
		return nil, fmt.Errorf("bpmf: loading checkpoint: %w", err)
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
