// Package sgns implements skip-gram with negative sampling (Mikolov et al.
// 2013), the word-embedding technique the paper's Section 3.4 discusses as
// an alternative route to product and company representations: products
// co-occurring in the same install base get nearby embeddings, and company
// vectors are produced by aggregating product embeddings (mean or
// IDF-weighted mean, after Clinchant & Perronnin 2013). With M = 38
// categories and tens of thousands of companies the paper conjectures good
// embeddings are learnable; the embedding-comparison experiment in
// internal/eval tests that conjecture against LDA features.
package sgns

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snapshot"
	"repro/internal/train"
)

// Snapshot container kinds for SGNS artifacts.
const (
	KindModel      = "sgns-model"
	KindCheckpoint = "sgns-checkpoint"
)

var (
	trainEpochs = obs.Default().Counter("sgns_train_epochs_total",
		"training epochs completed across all SGNS runs")
	trainPairs = obs.Default().Counter("sgns_train_pairs_total",
		"positive co-occurrence pairs processed across all SGNS runs")
)

// Config parameterizes SGNS training.
type Config struct {
	V   int // vocabulary size
	Dim int // embedding dimensionality

	Epochs    int     // passes over all co-occurrence pairs; 0 selects 5
	Negatives int     // negative samples per positive pair; 0 selects 5
	LearnRate float64 // initial SGD rate, linearly decayed; 0 selects 0.05
	// NoisePower shapes the negative-sampling distribution
	// (unigram^power); 0 selects Mikolov's 0.75.
	NoisePower float64

	// Progress, when non-nil, is invoked after every epoch with the mean
	// negative-sampling objective per positive pair and pair throughput
	// (TokensPerSec counts pairs). Loss terms reuse the sigmoids already
	// computed by the update rule and the hook draws no random numbers, so
	// trained embeddings are bit-identical with and without it.
	Progress obs.Progress

	// Checkpoint, when non-nil, receives a full snapshot of both embedding
	// matrices and the RNG state every CheckpointEvery completed epochs (and
	// once more on context cancellation). The snapshot owns its memory; the
	// hook draws no random numbers, so checkpointed runs train
	// bit-identically to unhooked runs. A hook error aborts training.
	Checkpoint func(*Checkpoint) error
	// CheckpointEvery is the epoch interval between Checkpoint calls;
	// 0 disables periodic checkpoints (a cancellation checkpoint is still
	// written when Checkpoint is set).
	CheckpointEvery int
}

// ConfigState is the hookless, serializable part of Config that checkpoints
// embed, so Resume continues under exactly the schedule the run started
// with.
type ConfigState struct {
	V, Dim            int
	Epochs, Negatives int
	LearnRate         float64
	NoisePower        float64
}

func (c *Config) state() ConfigState {
	return ConfigState{
		V: c.V, Dim: c.Dim, Epochs: c.Epochs, Negatives: c.Negatives,
		LearnRate: c.LearnRate, NoisePower: c.NoisePower,
	}
}

func (cs ConfigState) config() Config {
	return Config{
		V: cs.V, Dim: cs.Dim, Epochs: cs.Epochs, Negatives: cs.Negatives,
		LearnRate: cs.LearnRate, NoisePower: cs.NoisePower,
	}
}

func (c *Config) fillDefaults() {
	if c.Epochs == 0 {
		c.Epochs = 5
	}
	if c.Negatives == 0 {
		c.Negatives = 5
	}
	if c.LearnRate == 0 {
		c.LearnRate = 0.05
	}
	if c.NoisePower == 0 {
		c.NoisePower = 0.75
	}
}

func (c *Config) validate() error {
	if c.V < 2 {
		return fmt.Errorf("sgns: V must be >= 2, got %d", c.V)
	}
	if c.Dim < 1 {
		return fmt.Errorf("sgns: Dim must be positive, got %d", c.Dim)
	}
	if c.Epochs < 1 || c.Negatives < 1 || c.LearnRate <= 0 {
		return fmt.Errorf("sgns: invalid schedule (epochs %d, neg %d, lr %v)", c.Epochs, c.Negatives, c.LearnRate)
	}
	return nil
}

// Model holds trained embeddings: In is the product ("input") embedding
// matrix used downstream; Out is the context matrix.
type Model struct {
	V, Dim  int
	In, Out *mat.Matrix // V x Dim
}

// buildPairs materializes the positive (target, context) pairs and the
// negative-sampling noise distribution from the documents.
func buildPairs(cfg *Config, docs [][]int) (pairs [][2]int, noise []float64, err error) {
	freq := make([]float64, cfg.V)
	for di, doc := range docs {
		for _, w := range doc {
			if w < 0 || w >= cfg.V {
				return nil, nil, fmt.Errorf("sgns: doc %d token %d outside [0,%d)", di, w, cfg.V)
			}
			freq[w]++
		}
		for i, a := range doc {
			for j, b := range doc {
				if i != j {
					pairs = append(pairs, [2]int{a, b})
				}
			}
		}
	}
	if len(pairs) == 0 {
		return nil, nil, fmt.Errorf("sgns: no co-occurrence pairs (documents too small)")
	}
	noise = make([]float64, cfg.V)
	for w, f := range freq {
		noise[w] = math.Pow(f, cfg.NoisePower)
	}
	return pairs, noise, nil
}

// Train learns embeddings from companies' product sets: every ordered pair
// of distinct products within one company is a (target, context) positive
// example (install bases are small, so the window is the whole set —
// matching how the paper treats a company as the context unit).
func Train(cfg Config, docs [][]int, g *rng.RNG) (*Model, error) {
	return TrainContext(context.Background(), cfg, docs, g)
}

// TrainContext is Train with cooperative cancellation: ctx is checked at
// every epoch boundary, and on cancellation a final checkpoint is handed to
// cfg.Checkpoint (when set) before returning an error wrapping the context's
// error.
func TrainContext(ctx context.Context, cfg Config, docs [][]int, g *rng.RNG) (*Model, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pairs, noise, err := buildPairs(&cfg, docs)
	if err != nil {
		return nil, err
	}

	m := &Model{V: cfg.V, Dim: cfg.Dim, In: mat.New(cfg.V, cfg.Dim), Out: mat.New(cfg.V, cfg.Dim)}
	scale := 0.5 / float64(cfg.Dim)
	for i := range m.In.Data {
		m.In.Data[i] = (2*g.Float64() - 1) * scale
	}
	// Out starts at zero, the word2vec convention.
	return trainLoop(ctx, cfg, m, pairs, noise, 0, 0, g)
}

// Resume continues an interrupted run from a checkpoint. docs must be the
// same documents the original call received; hooks supplies
// Progress/Checkpoint/CheckpointEvery for the continued run while the
// training schedule comes from the checkpoint. A resumed run draws the same
// random stream as the uninterrupted one, so the final model is
// bit-identical.
func Resume(ctx context.Context, ck *Checkpoint, docs [][]int, hooks Config) (*Model, error) {
	cfg := ck.Cfg.config()
	cfg.Progress = hooks.Progress
	cfg.Checkpoint = hooks.Checkpoint
	cfg.CheckpointEvery = hooks.CheckpointEvery
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("sgns: checkpoint carries invalid config: %w", err)
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	pairs, noise, err := buildPairs(&cfg, docs)
	if err != nil {
		return nil, err
	}
	if want := cfg.Epochs * len(pairs); ck.Step > want {
		return nil, fmt.Errorf("sgns: checkpoint step %d exceeds schedule (%d pairs x %d epochs)", ck.Step, len(pairs), cfg.Epochs)
	}
	m := &Model{
		V: cfg.V, Dim: cfg.Dim,
		In:  mat.FromSlice(cfg.V, cfg.Dim, append([]float64(nil), ck.In...)),
		Out: mat.FromSlice(cfg.V, cfg.Dim, append([]float64(nil), ck.Out...)),
	}
	g, err := rng.FromState(ck.RNG)
	if err != nil {
		return nil, fmt.Errorf("sgns: checkpoint RNG state: %w", err)
	}
	return trainLoop(ctx, cfg, m, pairs, noise, ck.Epoch, ck.Step, g)
}

// trainLoop runs epochs startEpoch..Epochs-1 over the model in place.
func trainLoop(ctx context.Context, cfg Config, m *Model, pairs [][2]int, noise []float64, startEpoch, startStep int, g *rng.RNG) (*Model, error) {
	total := cfg.Epochs * len(pairs)
	step := startStep
	order := make([]int, len(pairs))
	gradIn := make([]float64, cfg.Dim)
	track := cfg.Progress != nil
	err := train.Loop[*Checkpoint]{
		Name: "sgns", Prefix: "sgns", Unit: "epoch",
		Start: startEpoch, Total: cfg.Epochs,
		Progress: cfg.Progress, Checkpoint: cfg.Checkpoint, Every: cfg.CheckpointEvery,
		Snapshot: func(epoch int) *Checkpoint { return snapshotState(&cfg, m, epoch, step, g) },
		Step: func(int) (int, func() float64, error) {
			var epochLoss float64
			// Reset to the identity before shuffling so the visit order is a pure
			// function of the RNG state at the epoch boundary — required for
			// checkpoint resume to replay the identical pair order.
			for i := range order {
				order[i] = i
			}
			g.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, pi := range order {
				lr := cfg.LearnRate * (1 - float64(step)/float64(total))
				if lr < cfg.LearnRate*1e-4 {
					lr = cfg.LearnRate * 1e-4
				}
				step++
				target, context := pairs[pi][0], pairs[pi][1]
				in := m.In.Row(target)
				for k := range gradIn {
					gradIn[k] = 0
				}
				// positive update
				out := m.Out.Row(context)
				gpos := sigmoid(mat.Dot(in, out)) - 1 // label 1
				if track {
					epochLoss -= math.Log(math.Max(1+gpos, 1e-300)) // -log sigmoid(x)
				}
				for k := 0; k < cfg.Dim; k++ {
					gradIn[k] += gpos * out[k]
					out[k] -= lr * gpos * in[k]
				}
				// negative updates
				for n := 0; n < cfg.Negatives; n++ {
					neg := g.Categorical(noise)
					if neg == context {
						continue
					}
					outN := m.Out.Row(neg)
					gneg := sigmoid(mat.Dot(in, outN)) // label 0
					if track {
						epochLoss -= math.Log(math.Max(1-gneg, 1e-300)) // -log sigmoid(-x)
					}
					for k := 0; k < cfg.Dim; k++ {
						gradIn[k] += gneg * outN[k]
						outN[k] -= lr * gneg * in[k]
					}
				}
				for k := 0; k < cfg.Dim; k++ {
					in[k] -= lr * gradIn[k]
				}
			}
			trainEpochs.Inc()
			trainPairs.Add(uint64(len(pairs)))
			return len(pairs), func() float64 { return epochLoss / float64(len(pairs)) }, nil
		},
	}.Run(ctx)
	if err != nil {
		return nil, err
	}
	return m, nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Embedding returns product w's embedding (a copy).
func (m *Model) Embedding(w int) []float64 {
	if w < 0 || w >= m.V {
		panic(fmt.Sprintf("sgns: product %d outside [0,%d)", w, m.V))
	}
	return append([]float64(nil), m.In.Row(w)...)
}

// ProductEmbeddings returns the V x Dim embedding matrix (a copy).
func (m *Model) ProductEmbeddings() *mat.Matrix {
	return m.In.Clone()
}

// Similarity returns the cosine similarity of two products' embeddings.
func (m *Model) Similarity(a, b int) float64 {
	return mat.CosineSim(m.In.Row(a), m.In.Row(b))
}

// Neighbors returns the k products most similar to w, by cosine,
// excluding w itself.
func (m *Model) Neighbors(w, k int) []int { return mat.NearestByCosine(m.In, w, k) }

// CompanyEmbedding aggregates a company's product embeddings into one
// vector. weights, when non-nil, gives per-category weights (e.g. IDF);
// nil means plain mean pooling. Empty install bases yield the zero vector.
func (m *Model) CompanyEmbedding(products []int, weights []float64) []float64 {
	out := make([]float64, m.Dim)
	var total float64
	for _, w := range products {
		wt := 1.0
		if weights != nil {
			wt = weights[w]
		}
		mat.AxpyVec(wt, m.In.Row(w), out)
		total += wt
	}
	if total > 0 {
		mat.ScaleVec(1/total, out)
	}
	return out
}

// CompanyEmbeddings aggregates every document, returning an N x Dim matrix.
func (m *Model) CompanyEmbeddings(docs [][]int, weights []float64) *mat.Matrix {
	out := mat.New(len(docs), m.Dim)
	for d, doc := range docs {
		copy(out.Row(d), m.CompanyEmbedding(doc, weights))
	}
	return out
}

type gobModel struct {
	V, Dim  int
	In, Out []float64
}

// Save serializes the model into a checksummed snapshot container of kind
// KindModel.
func (m *Model) Save(w io.Writer) error {
	return snapshot.Write(w, KindModel, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(gobModel{V: m.V, Dim: m.Dim, In: m.In.Data, Out: m.Out.Data})
	})
}

// Load deserializes a model written by Save. Truncated, bit-flipped and
// wrong-kind files fail the container's integrity checks before any gob
// decoding runs.
func Load(r io.Reader) (*Model, error) {
	var g gobModel
	if err := snapshot.Read(r, KindModel, func(r io.Reader) error {
		return gob.NewDecoder(r).Decode(&g)
	}); err != nil {
		return nil, fmt.Errorf("sgns: loading model: %w", err)
	}
	if g.V < 2 || g.Dim < 1 || len(g.In) != g.V*g.Dim || len(g.Out) != g.V*g.Dim {
		return nil, fmt.Errorf("sgns: corrupt model")
	}
	return &Model{V: g.V, Dim: g.Dim, In: mat.FromSlice(g.V, g.Dim, g.In), Out: mat.FromSlice(g.V, g.Dim, g.Out)}, nil
}
