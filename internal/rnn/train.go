package rnn

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/train"
)

// TrainStats records the learning curve of one training run.
type TrainStats struct {
	TrainLoss  []float64 // mean per-token NLL per epoch
	ValidPerpl []float64 // validation perplexity per epoch (empty without valid set)
}

// adam holds Adam moments for one parameter slice.
type adam struct {
	m, v []float64
}

func newAdam(n int) *adam { return &adam{m: make([]float64, n), v: make([]float64, n)} }

// sgdStep applies param -= lr * grad.
func sgdStep(param, grad []float64, lr float64) {
	for i, g := range grad {
		if g != 0 {
			param[i] -= lr * g
		}
	}
}

func (a *adam) update(param, grad []float64, lr float64, step int) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	bc1 := 1 - math.Pow(beta1, float64(step))
	bc2 := 1 - math.Pow(beta2, float64(step))
	for i, g := range grad {
		if g == 0 {
			// Still decay moments for touched-but-zero grads is unnecessary;
			// skipping keeps sparse embedding updates cheap and is the
			// standard "lazy Adam" treatment.
			continue
		}
		a.m[i] = beta1*a.m[i] + (1-beta1)*g
		a.v[i] = beta2*a.v[i] + (1-beta2)*g*g
		param[i] -= lr * (a.m[i] / bc1) / (math.Sqrt(a.v[i]/bc2) + eps)
	}
}

// layerGrads mirrors one layer's parameter tensors.
type layerGrads struct {
	wx, wh, b []float64
}

// accum adds one timestep's gradient for gate rows lo..hi-1: the outer
// products of dpre with the layer input x and with hvec (what Wh multiplied
// in those rows) into wx and wh, and dpre itself into b.
func (gw *layerGrads) accum(lo, hi int, dpre, x, hvec []float64) {
	hd := len(x)
	for j := lo; j < hi; j++ {
		gj := dpre[j]
		if gj == 0 {
			continue
		}
		wxRow := gw.wx[j*hd : (j+1)*hd]
		whRow := gw.wh[j*hd : (j+1)*hd]
		for k := 0; k < hd; k++ {
			wxRow[k] += gj * x[k]
			whRow[k] += gj * hvec[k]
		}
		gw.b[j] += gj
	}
}

// grads mirrors the model's parameter tensors.
type grads struct {
	emb    []float64
	stack  []layerGrads
	wo, bo []float64
}

func newGrads(m *Model) *grads {
	g := &grads{
		emb: make([]float64, len(m.Emb.Data)),
		wo:  make([]float64, len(m.Wo.Data)),
		bo:  make([]float64, len(m.Bo)),
	}
	for _, p := range m.Stack {
		g.stack = append(g.stack, layerGrads{
			wx: make([]float64, len(p.Wx.Data)),
			wh: make([]float64, len(p.Wh.Data)),
			b:  make([]float64, len(p.B)),
		})
	}
	return g
}

func (g *grads) each(fn func(xs []float64)) {
	fn(g.emb)
	fn(g.wo)
	fn(g.bo)
	for l := range g.stack {
		fn(g.stack[l].wx)
		fn(g.stack[l].wh)
		fn(g.stack[l].b)
	}
}

func (g *grads) zero() {
	g.each(func(xs []float64) {
		for i := range xs {
			xs[i] = 0
		}
	})
}

// globalNorm returns the L2 norm over all gradient tensors.
func (g *grads) globalNorm() float64 {
	var s float64
	g.each(func(xs []float64) {
		for _, v := range xs {
			s += v * v
		}
	})
	return math.Sqrt(s)
}

func (g *grads) scale(f float64) {
	g.each(func(xs []float64) {
		for i := range xs {
			xs[i] *= f
		}
	})
}

// validateSeqs range-checks every token against the vocabulary and requires
// a non-empty training corpus.
func validateSeqs(v int, seqs, valid [][]int) error {
	var nTokens int
	for si, seq := range seqs {
		for _, tok := range seq {
			if tok < 0 || tok >= v {
				return fmt.Errorf("rnn: train sequence %d token %d outside [0,%d)", si, tok, v)
			}
		}
		nTokens += len(seq)
	}
	if nTokens == 0 {
		return fmt.Errorf("rnn: training corpus has no tokens")
	}
	for si, seq := range valid {
		for _, tok := range seq {
			if tok < 0 || tok >= v {
				return fmt.Errorf("rnn: valid sequence %d token %d outside [0,%d)", si, tok, v)
			}
		}
	}
	return nil
}

// optimizer holds the per-tensor Adam moments, keyed by tensor name
// ("emb", "wo", "bo", "wx<l>", "wh<l>", "b<l>").
type optimizer map[string]*adam

func newOptimizer(m *Model) optimizer {
	opt := optimizer{
		"emb": newAdam(len(m.Emb.Data)),
		"wo":  newAdam(len(m.Wo.Data)),
		"bo":  newAdam(len(m.Bo)),
	}
	for l, p := range m.Stack {
		opt[fmt.Sprintf("wx%d", l)] = newAdam(len(p.Wx.Data))
		opt[fmt.Sprintf("wh%d", l)] = newAdam(len(p.Wh.Data))
		opt[fmt.Sprintf("b%d", l)] = newAdam(len(p.B))
	}
	return opt
}

// Train fits a recurrent language model on the training sequences seqs. When
// valid is non-empty, validation perplexity is recorded after each epoch (the
// paper holds out 10% for parameter validation). Sequences are processed one
// at a time (the corpus sequences are at most M=38 tokens long), with one
// optimizer update per sequence and global-norm gradient clipping.
func Train(cfg Config, seqs, valid [][]int, g *rng.RNG) (*Model, TrainStats, error) {
	return TrainContext(context.Background(), cfg, seqs, valid, g)
}

// TrainContext is Train with cooperative cancellation: ctx is checked at
// every epoch boundary, and on cancellation a final checkpoint is handed to
// cfg.Checkpoint (when set) before returning an error wrapping the context's
// error.
func TrainContext(ctx context.Context, cfg Config, seqs, valid [][]int, g *rng.RNG) (*Model, TrainStats, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, TrainStats{}, err
	}
	if err := validateSeqs(cfg.V, seqs, valid); err != nil {
		return nil, TrainStats{}, err
	}
	model := newModel(cfg, g)
	return trainLoop(ctx, cfg, model, newOptimizer(model), 0, 0, TrainStats{}, seqs, valid, g)
}

// Resume continues an interrupted run from a checkpoint. seqs and valid
// must be the same sequences the original call received; hooks supplies
// Progress/Checkpoint/CheckpointEvery for the continued run while the
// cell and the training schedule come from the checkpoint. A resumed run
// draws the same random stream as the uninterrupted one, so the final model
// is bit-identical.
func Resume(ctx context.Context, ck *Checkpoint, seqs, valid [][]int, hooks Config) (*Model, TrainStats, error) {
	cfg := ck.Cfg.config()
	cfg.Progress = hooks.Progress
	cfg.Checkpoint = hooks.Checkpoint
	cfg.CheckpointEvery = hooks.CheckpointEvery
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, TrainStats{}, fmt.Errorf("rnn: checkpoint carries invalid config: %w", err)
	}
	if err := ck.validate(); err != nil {
		return nil, TrainStats{}, err
	}
	if err := validateSeqs(cfg.V, seqs, valid); err != nil {
		return nil, TrainStats{}, err
	}
	model, err := ck.Params.model(cfg.Cell)
	if err != nil {
		return nil, TrainStats{}, err
	}
	opt := newOptimizer(model)
	if cfg.Optimizer == "adam" {
		if err := opt.restore(ck.Adam); err != nil {
			return nil, TrainStats{}, err
		}
	}
	g, err := rng.FromState(ck.RNG)
	if err != nil {
		return nil, TrainStats{}, fmt.Errorf("rnn: checkpoint RNG state: %w", err)
	}
	stats := TrainStats{
		TrainLoss:  append([]float64(nil), ck.TrainLoss...),
		ValidPerpl: append([]float64(nil), ck.ValidPerpl...),
	}
	return trainLoop(ctx, cfg, model, opt, ck.Epoch, ck.Step, stats, seqs, valid, g)
}

// trainLoop runs epochs startEpoch..Epochs-1 over the model in place.
func trainLoop(ctx context.Context, cfg Config, model *Model, opt optimizer, startEpoch, startStep int, stats TrainStats, seqs, valid [][]int, g *rng.RNG) (*Model, TrainStats, error) {
	gr := newGrads(model)
	kind := &cells[cfg.Cell]

	order := make([]int, len(seqs))
	step := startStep
	var sgdLR float64 // this epoch's SGD learning rate
	update := func(name string, param, grad []float64) {
		if cfg.Optimizer == "sgd" {
			sgdStep(param, grad, sgdLR)
		} else {
			opt[name].update(param, grad, cfg.LearnRate, step)
		}
	}
	err := train.Loop[*Checkpoint]{
		Name: kind.name, Prefix: "rnn", Unit: "epoch",
		Start: startEpoch, Total: cfg.Epochs,
		Progress: cfg.Progress, Checkpoint: cfg.Checkpoint, Every: cfg.CheckpointEvery,
		Snapshot: func(epoch int) *Checkpoint {
			return snapshotState(&cfg, model, opt, epoch, step, stats, g)
		},
		Step: func(epoch int) (int, func() float64, error) {
			// SGD follows the Zaremba schedule: constant lr, geometric decay
			// after the warm period.
			sgdLR = cfg.SGDLearnRate
			if over := epoch - cfg.SGDDecayAfter; over > 0 {
				sgdLR *= math.Pow(cfg.SGDDecay, float64(over))
			}
			// Reset to the identity before shuffling so the visit order is a pure
			// function of the RNG state at the epoch boundary — required for
			// checkpoint resume to replay the identical sequence order.
			for i := range order {
				order[i] = i
			}
			g.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			var lossSum float64
			var lossTokens int
			for _, si := range order {
				seq := seqs[si]
				if len(seq) == 0 {
					continue
				}
				gr.zero()
				loss := model.bptt(seq, cfg.Dropout, gr, g)
				lossSum += loss
				lossTokens += len(seq)
				if norm := gr.globalNorm(); norm > cfg.ClipNorm {
					gr.scale(cfg.ClipNorm / norm)
				}
				step++
				update("emb", model.Emb.Data, gr.emb)
				update("wo", model.Wo.Data, gr.wo)
				update("bo", model.Bo, gr.bo)
				for l, p := range model.Stack {
					update(fmt.Sprintf("wx%d", l), p.Wx.Data, gr.stack[l].wx)
					update(fmt.Sprintf("wh%d", l), p.Wh.Data, gr.stack[l].wh)
					update(fmt.Sprintf("b%d", l), p.B, gr.stack[l].b)
				}
			}
			meanNLL := math.NaN()
			if lossTokens > 0 {
				meanNLL = lossSum / float64(lossTokens)
				stats.TrainLoss = append(stats.TrainLoss, meanNLL)
			}
			if len(valid) > 0 {
				stats.ValidPerpl = append(stats.ValidPerpl, model.Perplexity(valid))
			}
			kind.epochs.Inc()
			kind.tokens.Add(uint64(lossTokens))
			return lossTokens, func() float64 { return meanNLL }, nil
		},
	}.Run(ctx)
	if err != nil {
		return nil, stats, err
	}
	return model, stats, nil
}

// bptt runs one forward+backward pass over a sequence and accumulates
// gradients into gr, returning the total cross-entropy loss. Dropout with
// probability p is applied (inverted scaling) to non-recurrent connections:
// the input of every layer and the top hidden state before projection.
func (m *Model) bptt(seq []int, p float64, gr *grads, g *rng.RNG) float64 {
	hd := m.Hidden
	T := len(seq)
	L := m.Layers
	keep := 1 - p
	kind := &cells[m.Cell]

	// Per-timestep inputs: BOS then seq[:T-1].
	inputs := make([]int, T)
	inputs[0] = m.bosToken()
	copy(inputs[1:], seq[:T-1])

	// Forward with caches.
	caches := make([][]stepCache, L) // [layer][time]
	inMasks := make([][][]float64, L)
	for l := 0; l < L; l++ {
		caches[l] = make([]stepCache, T)
		inMasks[l] = make([][]float64, T)
	}
	topMasks := make([][]float64, T)

	sampleMask := func() []float64 {
		if p == 0 {
			return nil
		}
		mask := make([]float64, hd)
		for j := range mask {
			if g.Float64() < keep {
				mask[j] = 1 / keep
			}
		}
		return mask
	}
	applyMask := func(x, mask []float64) []float64 {
		if mask == nil {
			return x
		}
		out := make([]float64, len(x))
		for j := range x {
			out[j] = x[j] * mask[j]
		}
		return out
	}

	s := m.NewState()
	var loss float64
	dlogitsAll := make([][]float64, T)
	topH := make([][]float64, T) // dropped-out top hidden per timestep
	for t := 0; t < T; t++ {
		x := m.Emb.Row(inputs[t])
		for l := 0; l < L; l++ {
			inMasks[l][t] = sampleMask()
			xin := applyMask(x, inMasks[l][t])
			s.H[l], s.C[l] = kind.step(&m.Stack[l], xin, s.H[l], s.C[l], &caches[l][t])
			x = s.H[l]
		}
		topMasks[t] = sampleMask()
		ht := applyMask(x, topMasks[t])
		topH[t] = ht
		logits := m.Logits(ht)
		lse := mat.LogSumExp(logits)
		loss += lse - logits[seq[t]]
		// dlogits = softmax - onehot(target)
		dl := make([]float64, m.V)
		for j := range dl {
			dl[j] = math.Exp(logits[j] - lse)
		}
		dl[seq[t]] -= 1
		dlogitsAll[t] = dl
	}

	// Backward. The carry of layer l is the gradient its own next timestep
	// sent back through the recurrent connection (and the LSTM's memory).
	carry := m.NewState()
	dpre := make([]float64, kind.gates*hd)
	tmp := make([]float64, hd)
	dh := make([]float64, hd)
	for t := T - 1; t >= 0; t-- {
		// output layer
		dl := dlogitsAll[t]
		for j := range dl {
			g0 := dl[j]
			wrow := gr.wo[j*hd : (j+1)*hd]
			for k := 0; k < hd; k++ {
				wrow[k] += g0 * topH[t][k]
			}
			gr.bo[j] += g0
		}
		// dh_top (through the output dropout mask)
		dFromAbove := make([]float64, hd)
		mat.MulVecTransTo(dFromAbove, m.Wo, dl)
		if topMasks[t] != nil {
			for k := 0; k < hd; k++ {
				dFromAbove[k] *= topMasks[t][k]
			}
		}
		// propagate down the stack
		for l := L - 1; l >= 0; l-- {
			for k := 0; k < hd; k++ {
				dh[k] = dFromAbove[k] + carry.H[l][k]
			}
			dx := kind.backward(&m.Stack[l], &gr.stack[l], &caches[l][t], dh, carry.H[l], carry.C[l], dpre, tmp)
			// through the input dropout mask
			if inMasks[l][t] != nil {
				for k := 0; k < hd; k++ {
					dx[k] *= inMasks[l][t][k]
				}
			}
			dFromAbove = dx
		}
		// embedding gradient
		row := gr.emb[inputs[t]*hd : (inputs[t]+1)*hd]
		for k := 0; k < hd; k++ {
			row[k] += dFromAbove[k]
		}
	}
	return loss
}
