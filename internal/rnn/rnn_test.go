package rnn

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestGradientCheck compares each cell's BPTT gradients against centered
// finite differences on a tiny model. This is the strongest correctness
// check for a hand-written backward pass.
func TestGradientCheck(t *testing.T) {
	for _, cell := range []Cell{LSTM, GRU} {
		t.Run(cell.String(), func(t *testing.T) {
			cfg := Config{Cell: cell, V: 4, Layers: 2, Hidden: 3, Epochs: 1, InitScale: 0.3}
			cfg.fillDefaults()
			g := rng.New(7)
			m := newModel(cfg, g)
			seq := []int{1, 3, 0, 2, 2}

			gr := newGrads(m)
			m.bptt(seq, 0, gr, g)

			lossOf := func() float64 {
				return m.bptt(seq, 0, newGrads(m), g)
			}
			const eps = 1e-6
			check := func(name string, params, grads []float64) {
				for _, idx := range []int{0, len(params) / 3, len(params) / 2, len(params) - 1} {
					orig := params[idx]
					params[idx] = orig + eps
					lp := lossOf()
					params[idx] = orig - eps
					lm := lossOf()
					params[idx] = orig
					numeric := (lp - lm) / (2 * eps)
					analytic := grads[idx]
					denom := math.Max(1e-4, math.Abs(numeric)+math.Abs(analytic))
					if math.Abs(numeric-analytic)/denom > 2e-3 {
						t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, idx, analytic, numeric)
					}
				}
			}
			check("emb", m.Emb.Data, gr.emb)
			check("wo", m.Wo.Data, gr.wo)
			check("bo", m.Bo, gr.bo)
			for l, p := range m.Stack {
				check("wx", p.Wx.Data, gr.stack[l].wx)
				check("wh", p.Wh.Data, gr.stack[l].wh)
				check("b", p.B, gr.stack[l].b)
			}
		})
	}
}
