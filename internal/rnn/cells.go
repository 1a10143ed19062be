package rnn

import (
	"math"

	"repro/internal/mat"
	"repro/internal/obs"
)

// Cell selects the gate equations of the hidden layers.
type Cell int

const (
	LSTM Cell = iota // the paper's sequential model; the zero value
	GRU              // Cho et al. 2014, the paper's Section 3.4 alternative
)

// cellKind is what one kind of cell contributes to the shared model and
// trainer. There are exactly two, so this is a table, not an interface.
type cellKind struct {
	// name prefixes the snapshot kinds, metric names, span names and
	// ProgressEvent.Model of the cell's runs.
	name string
	// gates is the number of H-row blocks in a layer's Wx, Wh and B.
	gates int
	// step advances one layer by one timestep. When cache is non-nil the
	// activations are recorded for backward.
	step func(p *layer, x, hPrev, cPrev []float64, cache *stepCache) (h, c []float64)
	// backward takes dh, the loss gradient on the layer's output at the
	// cached timestep (from the layer above plus dhNext, the carry from
	// the timestep after), accumulates the layer's parameter gradients
	// into gw, overwrites the carry (dhNext, and dcNext for a cell that has
	// a memory) with the gradient for the timestep before, and returns the
	// gradient on the layer's input. dpre (gates*H) and tmp (H) are scratch.
	backward func(p *layer, gw *layerGrads, cc *stepCache, dh, dhNext, dcNext, dpre, tmp []float64) (dx []float64)

	epochs, tokens *obs.Counter
}

var cells = [...]cellKind{
	LSTM: {
		name: "lstm", gates: 4, step: lstmStep, backward: lstmBackward,
		epochs: obs.Default().Counter("lstm_train_epochs_total",
			"training epochs completed across all LSTM runs"),
		tokens: obs.Default().Counter("lstm_train_tokens_total",
			"tokens processed by BPTT across all LSTM runs"),
	},
	GRU: {
		name: "gru", gates: 3, step: gruStep, backward: gruBackward,
		epochs: obs.Default().Counter("gru_train_epochs_total",
			"training epochs completed across all GRU runs"),
		tokens: obs.Default().Counter("gru_train_tokens_total",
			"tokens processed by BPTT across all GRU runs"),
	},
}

func (c Cell) valid() bool { return c >= 0 && int(c) < len(cells) }

// String returns "lstm" or "gru", the ibtrain -model value of the cell.
func (c Cell) String() string { return cells[c].name }

// KindModel is the snapshot container kind of the cell's model files.
func (c Cell) KindModel() string { return cells[c].name + "-model" }

// KindCheckpoint is the snapshot container kind of the cell's checkpoints.
func (c Cell) KindCheckpoint() string { return cells[c].name + "-checkpoint" }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// stepCache records the activations of one timestep of one layer for BPTT:
// the layer's input and carry-in, and what the cell's backward step reads.
type stepCache struct {
	x     []float64 // layer input (after dropout)
	hPrev []float64 // the caller's slice: bptt replaces state slices, never writes them

	// LSTM: gate activations, carry-in memory and tanh of the new memory.
	i, f, gc, o  []float64
	cPrev, tanhC []float64

	// GRU: update and reset gates, r ⊙ hPrev and the candidate h̃.
	z, r, rh, cand []float64
}

// lstmStep advances one LSTM layer. Gate order in the stacked 4H dimension
// is (input, forget, candidate, output).
func lstmStep(p *layer, x, hPrev, cPrev []float64, cache *stepCache) (h, c []float64) {
	hd := len(hPrev)
	pre := make([]float64, 4*hd)
	mat.MulVecTo(pre, p.Wx, x)
	tmp := make([]float64, 4*hd)
	mat.MulVecTo(tmp, p.Wh, hPrev)
	for j := range pre {
		pre[j] += tmp[j] + p.B[j]
	}
	i := make([]float64, hd)
	f := make([]float64, hd)
	gc := make([]float64, hd)
	o := make([]float64, hd)
	c = make([]float64, hd)
	h = make([]float64, hd)
	tanhC := make([]float64, hd)
	for j := 0; j < hd; j++ {
		i[j] = sigmoid(pre[j])
		f[j] = sigmoid(pre[hd+j])
		gc[j] = math.Tanh(pre[2*hd+j])
		o[j] = sigmoid(pre[3*hd+j])
		c[j] = f[j]*cPrev[j] + i[j]*gc[j]
		tanhC[j] = math.Tanh(c[j])
		h[j] = o[j] * tanhC[j]
	}
	if cache != nil {
		cache.x = append([]float64(nil), x...)
		cache.hPrev = hPrev
		cache.i, cache.f, cache.gc, cache.o = i, f, gc, o
		cache.cPrev = append([]float64(nil), cPrev...)
		cache.tanhC = tanhC
	}
	return h, c
}

func lstmBackward(p *layer, gw *layerGrads, cc *stepCache, dh, dhNext, dcNext, dpre, _ []float64) []float64 {
	hd := len(dh)
	for k := 0; k < hd; k++ {
		tc := cc.tanhC[k]
		do := dh[k] * tc
		dck := dcNext[k] + dh[k]*cc.o[k]*(1-tc*tc)
		di := dck * cc.gc[k]
		dg := dck * cc.i[k]
		df := dck * cc.cPrev[k]
		dpre[k] = di * cc.i[k] * (1 - cc.i[k])
		dpre[hd+k] = df * cc.f[k] * (1 - cc.f[k])
		dpre[2*hd+k] = dg * (1 - cc.gc[k]*cc.gc[k])
		dpre[3*hd+k] = do * cc.o[k] * (1 - cc.o[k])
		dcNext[k] = dck * cc.f[k]
	}
	gw.accum(0, 4*hd, dpre, cc.x, cc.hPrev)
	dx := make([]float64, hd)
	mat.MulVecTransTo(dx, p.Wx, dpre)
	mat.MulVecTransTo(dhNext, p.Wh, dpre)
	return dx
}

// gruStep advances one GRU layer. The 3H-stacked gate order is (update z,
// reset r, candidate h̃); for the candidate row block, Wh multiplies r⊙h.
// The GRU has no memory cell: cPrev passes through.
func gruStep(p *layer, x, hPrev, cPrev []float64, cache *stepCache) (h, c []float64) {
	hd := len(hPrev)
	// input contribution for all three gates
	pre := make([]float64, 3*hd)
	mat.MulVecTo(pre, p.Wx, x)
	// recurrent contribution: z and r rows use hPrev
	tmp := make([]float64, hd)
	for block := 0; block < 2; block++ {
		mat.MulVecTo(tmp, gateRows(p.Wh, block, hd), hPrev)
		for j := 0; j < hd; j++ {
			pre[block*hd+j] += tmp[j]
		}
	}
	z := make([]float64, hd)
	r := make([]float64, hd)
	for j := 0; j < hd; j++ {
		z[j] = sigmoid(pre[j] + p.B[j])
		r[j] = sigmoid(pre[hd+j] + p.B[hd+j])
	}
	// candidate uses r ⊙ hPrev
	rh := make([]float64, hd)
	for j := 0; j < hd; j++ {
		rh[j] = r[j] * hPrev[j]
	}
	mat.MulVecTo(tmp, gateRows(p.Wh, 2, hd), rh)
	cand := make([]float64, hd)
	h = make([]float64, hd)
	for j := 0; j < hd; j++ {
		cand[j] = math.Tanh(pre[2*hd+j] + tmp[j] + p.B[2*hd+j])
		h[j] = (1-z[j])*hPrev[j] + z[j]*cand[j]
	}
	if cache != nil {
		cache.x = append([]float64(nil), x...)
		cache.hPrev = hPrev
		cache.z, cache.r, cache.rh, cache.cand = z, r, rh, cand
	}
	return h, cPrev
}

func gruBackward(p *layer, gw *layerGrads, cc *stepCache, dh, dhNext, _, dpre, tmp []float64) []float64 {
	hd := len(dh)
	daz, dar, dac := dpre[:hd], dpre[hd:2*hd], dpre[2*hd:]
	for k := 0; k < hd; k++ {
		dcand := dh[k] * cc.z[k]
		dz := dh[k] * (cc.cand[k] - cc.hPrev[k])
		dhNext[k] = dh[k] * (1 - cc.z[k])
		dac[k] = dcand * (1 - cc.cand[k]*cc.cand[k])
		daz[k] = dz * cc.z[k] * (1 - cc.z[k])
	}
	// d(rh) = Wh_candᵀ dac
	mat.MulVecTransTo(tmp, gateRows(p.Wh, 2, hd), dac)
	for k := 0; k < hd; k++ {
		dr := tmp[k] * cc.hPrev[k]
		dhNext[k] += tmp[k] * cc.r[k]
		dar[k] = dr * cc.r[k] * (1 - cc.r[k])
	}
	gw.accum(0, 2*hd, dpre, cc.x, cc.hPrev)
	gw.accum(2*hd, 3*hd, dpre, cc.x, cc.rh)
	// dx and remaining dhPrev contributions
	dx := make([]float64, hd)
	for block := 0; block < 3; block++ {
		mat.MulVecTransTo(tmp, gateRows(p.Wx, block, hd), dpre[block*hd:(block+1)*hd])
		for k := 0; k < hd; k++ {
			dx[k] += tmp[k]
		}
	}
	for block := 0; block < 2; block++ {
		mat.MulVecTransTo(tmp, gateRows(p.Wh, block, hd), dpre[block*hd:(block+1)*hd])
		for k := 0; k < hd; k++ {
			dhNext[k] += tmp[k]
		}
	}
	return dx
}

// gateRows views the H x H row block of one gate in a stacked weight matrix.
func gateRows(w *mat.Matrix, block, hd int) *mat.Matrix {
	return mat.FromSlice(hd, hd, w.Data[block*hd*hd:(block+1)*hd*hd])
}
