// Package train is the one outer loop of the iteratively trained model
// families (lda and bpmf by Gibbs sweeps; lstm, gru and sgns by epochs). A
// family supplies its math as Step and its state capture as Snapshot; the
// loop owns what they all share: cancellation at iteration boundaries, the
// checkpoint cadence, trace spans, the root timer and progress reporting.
//
// The loop draws no random numbers and touches no model state, so a run is
// bit-identical whether or not it is traced, hooked or checkpointed.
package train

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Loop describes one training run over iterations Start..Total-1. CK is the
// family's *Checkpoint type, or struct{} for a family that does not
// checkpoint (sgns, bpmf), which leaves Checkpoint and Snapshot nil.
type Loop[CK any] struct {
	Name   string // metric/span stem and ProgressEvent.Model: "lda", "lstm", "gru", "sgns", "bpmf"
	Prefix string // error prefix, the package name: "lda", "rnn", ...
	Unit   string // what one iteration is called: "sweep" or "epoch"

	Start, Total int // Start > 0 when resuming

	// The three hooks of the family's Config, passed through unchanged.
	Progress   obs.Progress
	Checkpoint func(CK) error
	Every      int // Config.CheckpointEvery

	// Snapshot captures the complete training state after done completed
	// iterations. Only called when Checkpoint is set.
	Snapshot func(done int) CK
	// Step runs iteration i. It returns how many units (tokens, ratings,
	// pairs) the iteration processed and a closure computing the loss
	// reported to Progress; the closure is called only when Progress is set,
	// so a loss that costs a pass over the data is free when unhooked.
	Step func(i int) (units int, loss func() float64, err error)
}

// Run executes the loop. ctx is checked at every iteration boundary: on
// cancellation a final checkpoint goes to Checkpoint (when set) and the
// returned error wraps ctx.Err(). A periodic checkpoint fires after every
// Every-th completed iteration except the last. A Checkpoint or Step error
// aborts the run.
//
// When ctx carries an active trace, each iteration and each checkpoint
// write becomes a child span, <Name>.train.<Unit> and
// <Name>.train.checkpoint, with the iteration as int attribute <Unit>. The
// <Name>.train timer is observed only when the run completes.
func (l Loop[CK]) Run(ctx context.Context) error {
	if l.Every < 0 {
		return fmt.Errorf("%s: CheckpointEvery must be >= 0, got %d", l.Prefix, l.Every)
	}
	sp := obs.Start(l.Name + ".train")
	traced := trace.FromContext(ctx) != nil
	span := func(kind string, i int) *trace.Span {
		if !traced {
			return nil // a nil span's methods are no-ops
		}
		_, s := trace.Start(ctx, l.Name+".train."+kind)
		s.AttrInt(l.Unit, int64(i))
		return s
	}
	checkpoint := func(done int) error {
		ck := l.Snapshot(done)
		csp := span("checkpoint", done)
		err := l.Checkpoint(ck)
		if err != nil {
			csp.Error(err)
		}
		csp.End()
		return err
	}
	for i := l.Start; i < l.Total; i++ {
		if err := ctx.Err(); err != nil {
			if l.Checkpoint != nil {
				if cerr := checkpoint(i); cerr != nil {
					return fmt.Errorf("%s: writing cancellation checkpoint: %w", l.Prefix, cerr)
				}
			}
			return fmt.Errorf("%s: training interrupted after %s %d/%d: %w", l.Prefix, l.Unit, i, l.Total, err)
		}
		isp := span(l.Unit, i)
		var start time.Time
		if l.Progress != nil {
			start = time.Now()
		}
		units, loss, err := l.Step(i)
		if err != nil {
			isp.Error(err)
			isp.End()
			return err
		}
		if l.Progress != nil {
			elapsed := time.Since(start).Seconds()
			perSec := math.Inf(1)
			if elapsed > 0 {
				perSec = float64(units) / elapsed
			}
			l.Progress(obs.ProgressEvent{
				Model: l.Name, Iteration: i + 1, Total: l.Total,
				Loss: loss(), TokensPerSec: perSec,
			})
		}
		isp.End()
		if l.Checkpoint != nil && l.Every > 0 && (i+1)%l.Every == 0 && i+1 < l.Total {
			if err := checkpoint(i + 1); err != nil {
				return fmt.Errorf("%s: checkpoint hook at %s %d: %w", l.Prefix, l.Unit, i+1, err)
			}
		}
	}
	sp.End()
	return nil
}
