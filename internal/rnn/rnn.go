// Package rnn implements a recurrent language model from scratch: token
// embeddings, 1-3 stacked recurrent layers with dropout on the non-recurrent
// connections (Zaremba et al. 2014, the regularization the paper uses), a
// softmax output layer, and full backpropagation through time with Adam or
// the Zaremba SGD schedule. With LSTM cells it reproduces the paper's
// sequential model family, the grid of {1,2,3} layers x {10,100,200,300}
// nodes evaluated in Figure 1; with GRU cells (Cho et al. 2014) it is the
// simpler alternative the paper's Section 3.4 discusses, citing Chung et al.
// 2014 and Greff et al. 2016 that GRUs can win on some datasets but do not
// beat LSTM in general (the GRU-vs-LSTM ablation in internal/eval).
//
// Everything that does not depend on the gate equations — embedding, dropout,
// softmax, the time/layer skeleton of BPTT, the optimizers, the epoch loop,
// checkpoints and model files — is written once. A cell kind contributes its
// gate count, its forward step and its backward step (cells.go).
//
// The paper trained with TensorFlow; this is a dependency-free reimplementation
// of the same architecture sized for a 38-category vocabulary.
package rnn

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// Config parameterizes model construction and training.
type Config struct {
	Cell   Cell // gate equations of the hidden layers; the zero value is LSTM
	V      int  // vocabulary size (38 product categories in the paper)
	Layers int  // 1..3 hidden layers
	Hidden int  // nodes per layer == product embedding size

	Dropout   float64 // drop probability on non-recurrent connections
	Epochs    int     // paper: 14
	LearnRate float64 // Adam step size; 0 selects 3e-3
	ClipNorm  float64 // global gradient-norm clip; 0 selects 5
	InitScale float64 // uniform init range; 0 selects 0.08

	// Optimizer selects the training rule: "adam" (default) or "sgd", the
	// latter following the recipe of Zaremba et al. 2014 that the paper
	// cites — plain SGD with a constant learning rate that decays
	// geometrically after a warm period.
	Optimizer string
	// SGD schedule (used when Optimizer == "sgd"); zeros select the
	// Zaremba medium-model values: lr 1.0, decay 0.8 starting after
	// epoch 6.
	SGDLearnRate  float64
	SGDDecay      float64
	SGDDecayAfter int

	// Progress, when non-nil, is invoked after every epoch with the mean
	// per-token training NLL and token throughput. The hook never touches
	// the training RNG, so models are bit-identical with and without it.
	Progress obs.Progress

	// Checkpoint, when non-nil, receives a full snapshot of the parameters,
	// optimizer moments and RNG state every CheckpointEvery completed
	// epochs (and once more on context cancellation). The snapshot owns
	// its memory; the hook draws no random numbers, so checkpointed runs
	// train bit-identically to unhooked runs. A hook error aborts training.
	Checkpoint func(*Checkpoint) error
	// CheckpointEvery is the epoch interval between Checkpoint calls;
	// 0 disables periodic checkpoints (a cancellation checkpoint is still
	// written when Checkpoint is set).
	CheckpointEvery int
}

// ConfigState is the hookless, serializable part of Config that checkpoints
// embed, so Resume continues under exactly the schedule the run started
// with. On load, Cell follows the file's snapshot kind: checkpoints written
// before the field existed carry none.
type ConfigState struct {
	Cell                           Cell
	V, Layers, Hidden              int
	Dropout                        float64
	Epochs                         int
	LearnRate, ClipNorm, InitScale float64
	Optimizer                      string
	SGDLearnRate, SGDDecay         float64
	SGDDecayAfter                  int
}

func (c *Config) state() ConfigState {
	return ConfigState{
		Cell: c.Cell, V: c.V, Layers: c.Layers, Hidden: c.Hidden,
		Dropout: c.Dropout, Epochs: c.Epochs,
		LearnRate: c.LearnRate, ClipNorm: c.ClipNorm, InitScale: c.InitScale,
		Optimizer: c.Optimizer, SGDLearnRate: c.SGDLearnRate,
		SGDDecay: c.SGDDecay, SGDDecayAfter: c.SGDDecayAfter,
	}
}

func (cs ConfigState) config() Config {
	return Config{
		Cell: cs.Cell, V: cs.V, Layers: cs.Layers, Hidden: cs.Hidden,
		Dropout: cs.Dropout, Epochs: cs.Epochs,
		LearnRate: cs.LearnRate, ClipNorm: cs.ClipNorm, InitScale: cs.InitScale,
		Optimizer: cs.Optimizer, SGDLearnRate: cs.SGDLearnRate,
		SGDDecay: cs.SGDDecay, SGDDecayAfter: cs.SGDDecayAfter,
	}
}

func (c *Config) fillDefaults() {
	if c.LearnRate == 0 {
		c.LearnRate = 3e-3
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	if c.InitScale == 0 {
		c.InitScale = 0.08
	}
	if c.Epochs == 0 {
		c.Epochs = 14
	}
	if c.Optimizer == "" {
		c.Optimizer = "adam"
	}
	if c.SGDLearnRate == 0 {
		c.SGDLearnRate = 1
	}
	if c.SGDDecay == 0 {
		c.SGDDecay = 0.8
	}
	if c.SGDDecayAfter == 0 {
		c.SGDDecayAfter = 6
	}
}

func (c *Config) validate() error {
	if !c.Cell.valid() {
		return fmt.Errorf("rnn: unknown Cell %d", int(c.Cell))
	}
	if c.V < 1 {
		return fmt.Errorf("rnn: V must be positive, got %d", c.V)
	}
	if c.Layers < 1 || c.Layers > 3 {
		return fmt.Errorf("rnn: Layers must be 1..3, got %d", c.Layers)
	}
	if c.Hidden < 1 {
		return fmt.Errorf("rnn: Hidden must be positive, got %d", c.Hidden)
	}
	if c.Dropout < 0 || c.Dropout >= 1 {
		return fmt.Errorf("rnn: Dropout must be in [0,1), got %v", c.Dropout)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("rnn: Epochs must be positive, got %d", c.Epochs)
	}
	if c.Optimizer != "adam" && c.Optimizer != "sgd" {
		return fmt.Errorf("rnn: Optimizer must be \"adam\" or \"sgd\", got %q", c.Optimizer)
	}
	if c.SGDLearnRate < 0 || c.SGDDecay <= 0 || c.SGDDecay > 1 {
		return fmt.Errorf("rnn: invalid SGD schedule (lr %v, decay %v)", c.SGDLearnRate, c.SGDDecay)
	}
	return nil
}

// layer holds the parameters of one hidden layer: the cell's gates stacked
// along the rows, H rows per gate, in the order cells.go gives for the cell.
type layer struct {
	Wx *mat.Matrix // gates*H x H: input weights
	Wh *mat.Matrix // gates*H x H: recurrent weights
	B  []float64   // gates*H
}

// Model is a trained recurrent language model.
type Model struct {
	Cell              Cell
	V, Layers, Hidden int

	Emb   *mat.Matrix // (V+1) x H; row V is the begin-of-sequence token
	Stack []layer     // Layers entries
	Wo    *mat.Matrix // V x H output projection
	Bo    []float64   // V output bias
}

// bosToken is the embedding row index of the begin-of-sequence marker.
func (m *Model) bosToken() int { return m.V }

// newModel allocates parameters with uniform(-scale, +scale) init and, for
// the LSTM, forget-gate bias +1 (standard practice for stable early
// training).
func newModel(cfg Config, g *rng.RNG) *Model {
	h := cfg.Hidden
	rows := cells[cfg.Cell].gates * h
	m := &Model{Cell: cfg.Cell, V: cfg.V, Layers: cfg.Layers, Hidden: h}
	uniform := func(dst []float64) {
		for i := range dst {
			dst[i] = (2*g.Float64() - 1) * cfg.InitScale
		}
	}
	m.Emb = mat.New(cfg.V+1, h)
	uniform(m.Emb.Data)
	for l := 0; l < cfg.Layers; l++ {
		p := layer{Wx: mat.New(rows, h), Wh: mat.New(rows, h), B: make([]float64, rows)}
		uniform(p.Wx.Data)
		uniform(p.Wh.Data)
		if cfg.Cell == LSTM {
			for j := h; j < 2*h; j++ {
				p.B[j] = 1 // forget gate bias
			}
		}
		m.Stack = append(m.Stack, p)
	}
	m.Wo = mat.New(cfg.V, h)
	uniform(m.Wo.Data)
	m.Bo = make([]float64, cfg.V)
	return m
}

// State carries the recurrent activations between timesteps.
type State struct {
	H [][]float64 // per layer
	C [][]float64 // per layer: the LSTM's memory cell; a GRU leaves it zero
}

// NewState returns the zero state.
func (m *Model) NewState() *State {
	s := &State{H: make([][]float64, m.Layers), C: make([][]float64, m.Layers)}
	for l := 0; l < m.Layers; l++ {
		s.H[l] = make([]float64, m.Hidden)
		s.C[l] = make([]float64, m.Hidden)
	}
	return s
}

// Forward advances the full stack by one input token (embedding row index,
// which may be bosToken) and returns the top-layer hidden state. The state
// is updated in place. No dropout is applied (inference mode).
func (m *Model) Forward(token int, s *State) []float64 {
	step := cells[m.Cell].step
	x := m.Emb.Row(token)
	for l := range m.Stack {
		s.H[l], s.C[l] = step(&m.Stack[l], x, s.H[l], s.C[l], nil)
		x = s.H[l]
	}
	return x
}

// Logits projects a top-layer hidden state to vocabulary scores.
func (m *Model) Logits(h []float64) []float64 {
	out := make([]float64, m.V)
	mat.MulVecTo(out, m.Wo, h)
	for j := range out {
		out[j] += m.Bo[j]
	}
	return out
}

// NextDist returns the next-product distribution after consuming history
// (earlier tokens first). An empty history conditions only on BOS.
func (m *Model) NextDist(history []int) []float64 {
	s := m.NewState()
	h := m.Forward(m.bosToken(), s)
	for _, tok := range history {
		if tok < 0 || tok >= m.V {
			panic(fmt.Sprintf("rnn: token %d outside vocabulary [0,%d)", tok, m.V))
		}
		h = m.Forward(tok, s)
	}
	logits := m.Logits(h)
	mat.Softmax(logits, logits)
	return logits
}

// Embed returns the top-layer hidden state after consuming the full history:
// the company embedding the paper derives from its RNN.
func (m *Model) Embed(history []int) []float64 {
	s := m.NewState()
	h := m.Forward(m.bosToken(), s)
	for _, tok := range history {
		h = m.Forward(tok, s)
	}
	return append([]float64(nil), h...)
}

// ProductEmbeddings returns the V x H learned product embedding matrix
// (excluding the BOS row).
func (m *Model) ProductEmbeddings() *mat.Matrix {
	out := mat.New(m.V, m.Hidden)
	copy(out.Data, m.Emb.Data[:m.V*m.Hidden])
	return out
}

// Perplexity computes the average per-token perplexity over the sequences,
// teacher-forcing each next-token prediction (inference mode, no dropout).
func (m *Model) Perplexity(seqs [][]int) float64 {
	var logSum float64
	var n int
	for _, seq := range seqs {
		if len(seq) == 0 {
			continue
		}
		s := m.NewState()
		h := m.Forward(m.bosToken(), s)
		for _, tok := range seq {
			logits := m.Logits(h)
			lse := mat.LogSumExp(logits)
			logSum += logits[tok] - lse
			n++
			h = m.Forward(tok, s)
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Exp(-logSum / float64(n))
}

// ParameterCount returns the number of trainable parameters (a GRU layer has
// 3/4 of an LSTM layer's, the simplification the paper's Section 3.4
// discusses).
func (m *Model) ParameterCount() int {
	n := len(m.Emb.Data) + len(m.Wo.Data) + len(m.Bo)
	for _, p := range m.Stack {
		n += len(p.Wx.Data) + len(p.Wh.Data) + len(p.B)
	}
	return n
}

type gobCell struct {
	Wx, Wh []float64
	B      []float64
}

// gobModel is the serialized form. It carries no cell kind: the snapshot
// kind of the file it sits in does.
type gobModel struct {
	V, Layers, Hidden int
	Emb               []float64
	Cells             []gobCell
	Wo                []float64
	Bo                []float64
}

// gobView builds the serialized form. The slices alias the live model;
// callers that outlive the model's next mutation must deep-copy.
func (m *Model) gobView() gobModel {
	g := gobModel{
		V: m.V, Layers: m.Layers, Hidden: m.Hidden,
		Emb: m.Emb.Data, Wo: m.Wo.Data, Bo: m.Bo,
	}
	for _, p := range m.Stack {
		g.Cells = append(g.Cells, gobCell{Wx: p.Wx.Data, Wh: p.Wh.Data, B: p.B})
	}
	return g
}

// gobCopy is gobView with every tensor deep-copied, for checkpoints taken
// while training continues to mutate the parameters.
func (m *Model) gobCopy() gobModel {
	g := m.gobView()
	g.Emb = append([]float64(nil), g.Emb...)
	g.Wo = append([]float64(nil), g.Wo...)
	g.Bo = append([]float64(nil), g.Bo...)
	for i := range g.Cells {
		g.Cells[i].Wx = append([]float64(nil), g.Cells[i].Wx...)
		g.Cells[i].Wh = append([]float64(nil), g.Cells[i].Wh...)
		g.Cells[i].B = append([]float64(nil), g.Cells[i].B...)
	}
	return g
}

// model validates tensor shapes against the cell's gate count and
// reassembles a Model.
func (g *gobModel) model(cell Cell) (*Model, error) {
	if g.V < 1 || g.Hidden < 1 || g.Layers != len(g.Cells) {
		return nil, fmt.Errorf("rnn: corrupt model header")
	}
	h := g.Hidden
	if len(g.Emb) != (g.V+1)*h || len(g.Wo) != g.V*h || len(g.Bo) != g.V {
		return nil, fmt.Errorf("rnn: corrupt model tensors")
	}
	m := &Model{
		Cell: cell, V: g.V, Layers: g.Layers, Hidden: h,
		Emb: mat.FromSlice(g.V+1, h, g.Emb),
		Wo:  mat.FromSlice(g.V, h, g.Wo),
		Bo:  g.Bo,
	}
	rows := cells[cell].gates * h
	for _, c := range g.Cells {
		if len(c.Wx) != rows*h || len(c.Wh) != rows*h || len(c.B) != rows {
			return nil, fmt.Errorf("rnn: corrupt %s cell tensors", cell)
		}
		m.Stack = append(m.Stack, layer{
			Wx: mat.FromSlice(rows, h, c.Wx),
			Wh: mat.FromSlice(rows, h, c.Wh),
			B:  c.B,
		})
	}
	return m, nil
}

// readSnapshot verifies one container from r whose kind is kindOf some cell,
// decodes its payload into v and returns that cell. Truncated, bit-flipped
// and foreign-kind files fail the container's integrity checks before any
// gob decoding runs.
func readSnapshot(r io.Reader, kindOf func(Cell) string, v any) (Cell, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	kind, err := snapshot.ReadKind(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	cell := LSTM
	if kind == kindOf(GRU) {
		cell = GRU
	}
	return cell, snapshot.Read(bytes.NewReader(data), kindOf(cell), v)
}

// Save serializes the model into a checksummed snapshot container of kind
// m.Cell.KindModel().
func (m *Model) Save(w io.Writer) error {
	return snapshot.Write(w, m.Cell.KindModel(), m.gobView())
}

// Load deserializes a model of either cell written by Save; the file's
// snapshot kind says which.
func Load(r io.Reader) (*Model, error) {
	var g gobModel
	cell, err := readSnapshot(r, Cell.KindModel, &g)
	if err != nil {
		return nil, fmt.Errorf("rnn: loading model: %w", err)
	}
	return g.model(cell)
}
