package eval

import (
	"testing"

	"repro/internal/par"
)

// BenchmarkFigure1Workers1 and BenchmarkFigure1Workers4 time the Figure 1
// LSTM architecture grid at Quick() scale under the two worker counts the
// determinism tests compare. Run with -bench to measure the fan-out speedup
// on the current hardware.
func BenchmarkFigure1Workers1(b *testing.B) { benchFigure1(b, 1) }
func BenchmarkFigure1Workers4(b *testing.B) { benchFigure1(b, 4) }

func benchFigure1(b *testing.B, workers int) {
	par.SetWorkers(workers)
	defer par.SetWorkers(0)
	for i := 0; i < b.N; i++ {
		ctx, err := NewContext(Quick())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RunFigure1(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
