// Package lda implements Latent Dirichlet Allocation estimated by collapsed
// Gibbs sampling — the paper's best-performing model for company-product
// data. Companies are documents, product categories are words. The package
// supports the paper's two input variants (binary bag-of-words and TF-IDF
// token weights), held-out perplexity by fold-in inference, per-company
// topic mixtures (the learned company features B) and per-product topic
// embeddings (used for the paper's t-SNE Figures 8-9).
package lda

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/snapshot"
	"repro/internal/train"
)

// Snapshot container kinds for LDA artifacts.
const (
	KindModel      = "lda-model"
	KindCheckpoint = "lda-checkpoint"
)

var (
	trainRuns = obs.Default().Counter("lda_train_runs_total",
		"completed lda.Train calls")
	trainIterations = obs.Default().Counter("lda_train_iterations_total",
		"collapsed-Gibbs sweeps completed across all LDA training runs")
	trainTokens = obs.Default().Counter("lda_train_tokens_total",
		"token-topic assignments resampled across all LDA training runs")
)

// Config parameterizes LDA training.
type Config struct {
	Topics int // number of latent topics K (the paper sweeps 2..16)
	V      int // vocabulary size M

	// Alpha is the symmetric document-topic prior; 0 selects 1/K, the
	// default of the gensim implementation the paper used. Beta is the
	// symmetric topic-word prior; 0 selects 0.01.
	Alpha, Beta float64

	// Gibbs schedule: BurnIn sweeps discarded, then Iterations sweeps of
	// which every SampleLag-th contributes to the posterior mean of phi.
	// Zero values select 50 / 150 / 5.
	BurnIn, Iterations, SampleLag int

	// InferIterations controls fold-in inference on held-out documents
	// (burn-in half, averaging half). Zero selects 30.
	InferIterations int

	// Progress, when non-nil, is invoked after every Gibbs sweep with the
	// sweep number, the in-sample log-likelihood under the current count
	// estimates, and token throughput. The hook is outside the sampler's
	// random-number stream, so trained models are bit-identical with and
	// without it.
	Progress obs.Progress

	// Checkpoint, when non-nil, receives a full sampler snapshot every
	// CheckpointEvery completed sweeps (and once more on context
	// cancellation). The snapshot owns its memory and stays valid after
	// training continues. Like Progress, the hook draws no random numbers,
	// so checkpointed runs train bit-identically to unhooked runs. A hook
	// error aborts training.
	Checkpoint func(*Checkpoint) error
	// CheckpointEvery is the sweep interval between Checkpoint calls;
	// 0 disables periodic checkpoints (a cancellation checkpoint is still
	// written when Checkpoint is set).
	CheckpointEvery int
}

// ConfigState is the hookless, serializable part of Config that checkpoints
// embed, so Resume continues under exactly the schedule the run started
// with.
type ConfigState struct {
	Topics, V                     int
	Alpha, Beta                   float64
	BurnIn, Iterations, SampleLag int
	InferIterations               int
}

func (c *Config) state() ConfigState {
	return ConfigState{
		Topics: c.Topics, V: c.V, Alpha: c.Alpha, Beta: c.Beta,
		BurnIn: c.BurnIn, Iterations: c.Iterations, SampleLag: c.SampleLag,
		InferIterations: c.InferIterations,
	}
}

func (cs ConfigState) config() Config {
	return Config{
		Topics: cs.Topics, V: cs.V, Alpha: cs.Alpha, Beta: cs.Beta,
		BurnIn: cs.BurnIn, Iterations: cs.Iterations, SampleLag: cs.SampleLag,
		InferIterations: cs.InferIterations,
	}
}

func (c *Config) fillDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 1 / float64(c.Topics)
	}
	if c.Beta == 0 {
		c.Beta = 0.01
	}
	if c.BurnIn == 0 {
		c.BurnIn = 50
	}
	if c.Iterations == 0 {
		c.Iterations = 150
	}
	if c.SampleLag == 0 {
		c.SampleLag = 5
	}
	if c.InferIterations == 0 {
		c.InferIterations = 30
	}
}

func (c *Config) validate() error {
	if c.Topics < 1 {
		return fmt.Errorf("lda: Topics must be >= 1, got %d", c.Topics)
	}
	if c.V < 1 {
		return fmt.Errorf("lda: V must be >= 1, got %d", c.V)
	}
	if c.Alpha < 0 || c.Beta < 0 {
		return fmt.Errorf("lda: priors must be non-negative")
	}
	if c.BurnIn < 0 || c.Iterations < 1 || c.SampleLag < 1 || c.InferIterations < 2 {
		return fmt.Errorf("lda: invalid Gibbs schedule (burnin %d, iters %d, lag %d, infer %d)",
			c.BurnIn, c.Iterations, c.SampleLag, c.InferIterations)
	}
	return nil
}

// Model is a trained LDA model. Phi holds the posterior-mean topic-word
// distributions; each row sums to 1.
type Model struct {
	K, V        int
	Alpha, Beta float64
	Phi         *mat.Matrix // K x V
	InferIters  int
}

// token is one token-topic assignment of the collapsed sampler.
type token struct {
	doc, word int
	weight    float64
	topic     int
}

// buildTokens flattens docs (and optional per-token weights) into sampler
// tokens, validating ranges. The flattening order is deterministic, which
// checkpoint/resume relies on to rebind saved assignments to tokens.
func buildTokens(cfg *Config, docs [][]int, weights [][]float64) ([]token, error) {
	if weights != nil && len(weights) != len(docs) {
		return nil, fmt.Errorf("lda: weights length %d != docs length %d", len(weights), len(docs))
	}
	var tokens []token
	for d, doc := range docs {
		for i, w := range doc {
			if w < 0 || w >= cfg.V {
				return nil, fmt.Errorf("lda: document %d has token %d outside [0,%d)", d, w, cfg.V)
			}
			wt := 1.0
			if weights != nil {
				if len(weights[d]) != len(doc) {
					return nil, fmt.Errorf("lda: weights[%d] length %d != doc length %d", d, len(weights[d]), len(doc))
				}
				wt = weights[d][i]
				if wt <= 0 || math.IsNaN(wt) {
					return nil, fmt.Errorf("lda: weights must be positive, got %v", wt)
				}
			}
			tokens = append(tokens, token{doc: d, word: w, weight: wt})
		}
	}
	return tokens, nil
}

// sampler is the complete mutable state of one collapsed-Gibbs run; it is
// what a Checkpoint captures and what Resume reconstructs.
type sampler struct {
	cfg     Config
	tokens  []token
	nzw     *mat.Matrix // topic-word counts
	nz      []float64   // topic totals
	ndz     *mat.Matrix // doc-topic counts
	phiAcc  *mat.Matrix // posterior-mean accumulator
	samples int
	g       *rng.RNG
}

// rebuildCounts recomputes the count matrices from the current token-topic
// assignments (their sufficient statistics).
func (s *sampler) rebuildCounts() {
	k, v := s.cfg.Topics, s.cfg.V
	for i := range s.tokens {
		t := &s.tokens[i]
		s.nzw.Data[t.topic*v+t.word] += t.weight
		s.nz[t.topic] += t.weight
		s.ndz.Data[t.doc*k+t.topic] += t.weight
	}
}

// snapshotState captures the sampler at a completed-sweep boundary. All
// slices are copied, so the checkpoint stays valid while training continues.
func (s *sampler) snapshotState(sweep int) *Checkpoint {
	ck := &Checkpoint{
		Cfg:     s.cfg.state(),
		Sweep:   sweep,
		Samples: s.samples,
		PhiAcc:  append([]float64(nil), s.phiAcc.Data...),
		RNG:     s.g.State(),
	}
	ck.Assignments = make([]int, len(s.tokens))
	for i := range s.tokens {
		ck.Assignments[i] = s.tokens[i].topic
	}
	return ck
}

// Train runs collapsed Gibbs sampling on the documents. docs[d] lists the
// token ids of document d (for the binary install-base input every owned
// category appears once). weights, when non-nil, gives a positive weight per
// token (the TF-IDF input variant); nil means unit weights. Documents may be
// empty; they simply contribute nothing.
func Train(cfg Config, docs [][]int, weights [][]float64, g *rng.RNG) (*Model, error) {
	return TrainContext(context.Background(), cfg, docs, weights, g)
}

// TrainContext is Train with cooperative cancellation: ctx is checked at
// every sweep boundary, and on cancellation a final checkpoint is handed to
// cfg.Checkpoint (when set) before returning an error wrapping the context's
// error.
func TrainContext(ctx context.Context, cfg Config, docs [][]int, weights [][]float64, g *rng.RNG) (*Model, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tokens, err := buildTokens(&cfg, docs, weights)
	if err != nil {
		return nil, err
	}
	k, v := cfg.Topics, cfg.V
	s := &sampler{
		cfg: cfg, tokens: tokens, g: g,
		nzw: mat.New(k, v), nz: make([]float64, k), ndz: mat.New(len(docs), k),
		phiAcc: mat.New(k, v),
	}
	// random initialization
	for i := range s.tokens {
		s.tokens[i].topic = g.Intn(k)
	}
	s.rebuildCounts()
	return s.run(ctx, 0)
}

// Resume continues an interrupted run from a checkpoint. docs and weights
// must be the same inputs the original Train call received (the checkpoint
// stores assignments per token, not the corpus itself); hooks supplies
// Progress/Checkpoint/CheckpointEvery for the continued run while the
// training schedule comes from the checkpoint. A resumed run draws the same
// random stream as the uninterrupted one, so the final model is
// bit-identical.
func Resume(ctx context.Context, ck *Checkpoint, docs [][]int, weights [][]float64, hooks Config) (*Model, error) {
	cfg := ck.Cfg.config()
	cfg.Progress = hooks.Progress
	cfg.Checkpoint = hooks.Checkpoint
	cfg.CheckpointEvery = hooks.CheckpointEvery
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("lda: checkpoint carries invalid config: %w", err)
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	tokens, err := buildTokens(&cfg, docs, weights)
	if err != nil {
		return nil, err
	}
	if len(tokens) != len(ck.Assignments) {
		return nil, fmt.Errorf("lda: checkpoint has %d token assignments but corpus has %d tokens — resume needs the original corpus",
			len(ck.Assignments), len(tokens))
	}
	for i, z := range ck.Assignments {
		tokens[i].topic = z
	}
	g, err := rng.FromState(ck.RNG)
	if err != nil {
		return nil, fmt.Errorf("lda: checkpoint RNG state: %w", err)
	}
	k, v := cfg.Topics, cfg.V
	s := &sampler{
		cfg: cfg, tokens: tokens, g: g,
		nzw: mat.New(k, v), nz: make([]float64, k), ndz: mat.New(len(docs), k),
		phiAcc:  mat.FromSlice(k, v, append([]float64(nil), ck.PhiAcc...)),
		samples: ck.Samples,
	}
	s.rebuildCounts()
	return s.run(ctx, ck.Sweep)
}

// run executes Gibbs sweeps startSweep..total-1 and finalizes the model.
func (s *sampler) run(ctx context.Context, startSweep int) (*Model, error) {
	cfg := s.cfg
	k, v := cfg.Topics, cfg.V
	tokens := s.tokens
	nzw, nz, ndz := s.nzw, s.nz, s.ndz
	alpha, beta := cfg.Alpha, cfg.Beta
	vbeta := float64(v) * beta
	phiAcc := s.phiAcc
	g := s.g

	// The progress hook's in-sample log-likelihood reads the current count
	// matrices only — no random draws — so installing a hook never perturbs
	// the sampler's stream. Both the per-document weight totals and the
	// scan are skipped entirely when the hook is unset.
	var logLik func() float64
	if cfg.Progress != nil {
		docW := make([]float64, ndz.Rows)
		for i := range tokens {
			docW[tokens[i].doc] += tokens[i].weight
		}
		logLik = func() float64 {
			var ll float64
			for i := range tokens {
				t := &tokens[i]
				drow := ndz.Row(t.doc)
				denomD := docW[t.doc] + alpha*float64(k)
				var p float64
				for z := 0; z < k; z++ {
					p += (drow[z] + alpha) / denomD * (nzw.Data[z*v+t.word] + beta) / (nz[z] + vbeta)
				}
				ll += t.weight * math.Log(p)
			}
			return ll
		}
	}

	probs := make([]float64, k)
	err := train.Loop[*Checkpoint]{
		Name: "lda", Prefix: "lda", Unit: "sweep",
		Start: startSweep, Total: cfg.BurnIn + cfg.Iterations,
		Progress: cfg.Progress, Checkpoint: cfg.Checkpoint, Every: cfg.CheckpointEvery,
		Snapshot: s.snapshotState,
		Step: func(sweep int) (int, func() float64, error) {
			for i := range tokens {
				t := &tokens[i]
				// remove token from counts
				nzw.Data[t.topic*v+t.word] -= t.weight
				nz[t.topic] -= t.weight
				ndz.Data[t.doc*k+t.topic] -= t.weight
				// full conditional
				drow := ndz.Row(t.doc)
				for z := 0; z < k; z++ {
					probs[z] = (drow[z] + alpha) * (nzw.Data[z*v+t.word] + beta) / (nz[z] + vbeta)
				}
				t.topic = g.Categorical(probs)
				// add back
				nzw.Data[t.topic*v+t.word] += t.weight
				nz[t.topic] += t.weight
				ndz.Data[t.doc*k+t.topic] += t.weight
			}
			trainIterations.Inc()
			trainTokens.Add(uint64(len(tokens)))
			if sweep >= cfg.BurnIn && (sweep-cfg.BurnIn)%cfg.SampleLag == 0 {
				for z := 0; z < k; z++ {
					denom := nz[z] + vbeta
					for w := 0; w < v; w++ {
						phiAcc.Data[z*v+w] += (nzw.Data[z*v+w] + beta) / denom
					}
				}
				s.samples++
			}
			return len(tokens), logLik, nil
		},
	}.Run(ctx)
	if err != nil {
		return nil, err
	}
	if s.samples == 0 { // schedule too short to sample; use final state
		for z := 0; z < k; z++ {
			denom := nz[z] + vbeta
			for w := 0; w < v; w++ {
				phiAcc.Data[z*v+w] += (nzw.Data[z*v+w] + beta) / denom
			}
		}
		s.samples = 1
	}
	out := phiAcc.Clone()
	out.Scale(1 / float64(s.samples))
	// normalize rows exactly
	for z := 0; z < k; z++ {
		mat.Normalize(out.Row(z))
	}
	trainRuns.Inc()
	return &Model{K: k, V: v, Alpha: alpha, Beta: beta, Phi: out, InferIters: cfg.InferIterations}, nil
}

// InferTheta estimates the topic mixture of a (possibly unseen) document by
// fold-in Gibbs sampling with Phi fixed. Empty documents return the prior
// mean (uniform).
func (m *Model) InferTheta(doc []int, g *rng.RNG) []float64 {
	theta := make([]float64, m.K)
	m.foldIn(theta, doc, g, newFoldScratch(m.K))
	return theta
}

// foldScratch is the per-document working memory of foldIn, reusable across
// documents so a batch does not allocate per document.
type foldScratch struct {
	assign               []int     // per token: current topic
	phi                  []float64 // per token: its Phi column, K values
	ndk, probs, thetaAcc []float64 // per topic
}

func newFoldScratch(k int) *foldScratch {
	buf := make([]float64, 3*k)
	return &foldScratch{ndk: buf[:k:k], probs: buf[k : 2*k : 2*k], thetaAcc: buf[2*k:]}
}

// foldIn writes doc's topic mixture into theta (length K), drawing every
// random number from g.
func (m *Model) foldIn(theta []float64, doc []int, g *rng.RNG, sc *foldScratch) {
	if len(doc) == 0 {
		for z := range theta {
			theta[z] = 1 / float64(m.K)
		}
		return
	}
	k, alpha := m.K, m.Alpha
	if len(sc.assign) < len(doc) {
		sc.assign = make([]int, len(doc))
		sc.phi = make([]float64, len(doc)*k)
	}
	assign, phi := sc.assign[:len(doc)], sc.phi[:len(doc)*k]
	ndk, probs, thetaAcc := sc.ndk, sc.probs, sc.thetaAcc
	for z := range ndk {
		ndk[z], thetaAcc[z] = 0, 0
	}
	for i, w := range doc {
		m.checkToken(w)
		assign[i] = g.Intn(k)
		ndk[assign[i]]++
		// Gather token i's Phi column once; the sweeps below read it
		// InferIters times.
		for z := 0; z < k; z++ {
			phi[i*k+z] = m.Phi.Data[z*m.V+w]
		}
	}
	burn := m.InferIters / 2
	samples := 0
	for it := 0; it < m.InferIters; it++ {
		for i := range doc {
			ndk[assign[i]]--
			col := phi[i*k : i*k+k]
			for z := range probs {
				probs[z] = (ndk[z] + alpha) * col[z]
			}
			assign[i] = g.Categorical(probs)
			ndk[assign[i]]++
		}
		if it >= burn {
			denom := float64(len(doc)) + alpha*float64(k)
			for z := range thetaAcc {
				thetaAcc[z] += (ndk[z] + alpha) / denom
			}
			samples++
		}
	}
	for z := range theta {
		theta[z] = thetaAcc[z] / float64(samples)
	}
	mat.Normalize(theta)
}

func (m *Model) checkToken(w int) {
	if w < 0 || w >= m.V {
		panic(fmt.Sprintf("lda: token %d outside vocabulary [0,%d)", w, m.V))
	}
}

// WordProb returns P(w | theta) = Σ_z theta_z Phi_zw.
func (m *Model) WordProb(theta []float64, w int) float64 {
	var p float64
	for z := 0; z < m.K; z++ {
		p += theta[z] * m.Phi.Data[z*m.V+w]
	}
	return p
}

// WordDist returns the full P(w | theta) distribution.
func (m *Model) WordDist(theta []float64) []float64 {
	out := make([]float64, m.V)
	for w := 0; w < m.V; w++ {
		out[w] = m.WordProb(theta, w)
	}
	return out
}

// Perplexity computes held-out perplexity by leave-one-out document
// completion: each test token is scored under the topic mixture inferred
// from all the *other* tokens of its document, so no token is used to infer
// the mixture that predicts it. (Plain fold-in — inferring theta from the
// full document including the scored token — lets large-K models overfit
// the evaluation and destroys the U-shaped perplexity-vs-topics curve the
// paper reports in Figure 2; leave-one-out keeps the evaluation honest
// while giving the exchangeable model its full bidirectional context.)
// Single-token documents are scored under the prior-mean mixture.
func (m *Model) Perplexity(docs [][]int, g *rng.RNG) float64 {
	var logSum float64
	var n int
	rest := make([]int, 0, 64)
	for _, doc := range docs {
		if len(doc) == 0 {
			continue
		}
		if len(doc) == 1 {
			theta := m.InferTheta(nil, g)
			logSum += math.Log(m.WordProb(theta, doc[0]))
			n++
			continue
		}
		for i, w := range doc {
			rest = rest[:0]
			rest = append(rest, doc[:i]...)
			rest = append(rest, doc[i+1:]...)
			theta := m.InferTheta(rest, g)
			logSum += math.Log(m.WordProb(theta, w))
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Exp(-logSum / float64(n))
}

// Representations infers the company feature matrix B (N x K): row d is the
// topic mixture of document d. This is the representation used for company
// similarity search and clustering.
//
// Row d folds in from a stream of its own, New(rowSeed(base, d)), where base
// is one Int63 drawn from g. A row therefore depends on the model, its own
// document, its index and g's state, never on the other documents: editing
// one document leaves every other row bit-identical, and any worker count
// gives the same bits. g advances by exactly that one draw.
func (m *Model) Representations(docs [][]int, g *rng.RNG) *mat.Matrix {
	for _, doc := range docs {
		for _, w := range doc {
			m.checkToken(w) // panic on the caller's goroutine, not a worker's
		}
	}
	base := g.Int63()
	out := mat.New(len(docs), m.K)
	_ = par.ForEachShard(context.Background(), len(docs), func(_, lo, hi int) error {
		sc, rg := newFoldScratch(m.K), rng.New(0)
		for d := lo; d < hi; d++ {
			rg.Reseed(rowSeed(base, d))
			m.foldIn(out.Row(d), docs[d], rg, sc)
		}
		return nil
	})
	return out
}

// rowSeed is the seed of row d's fold-in stream: the d-th output of a
// SplitMix64 generator started at base (one SplitMix64 step over base and
// d), so neighbouring rows get unrelated seeds.
func rowSeed(base int64, d int) int64 {
	z := uint64(base) + uint64(d+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// ProductEmbeddings returns the V x K matrix whose row w is
// P(topic | product w) ∝ Phi_zw, the product embedding in topic space that
// the paper projects with t-SNE (Figures 8-9).
func (m *Model) ProductEmbeddings() *mat.Matrix {
	out := mat.New(m.V, m.K)
	for w := 0; w < m.V; w++ {
		row := out.Row(w)
		for z := 0; z < m.K; z++ {
			row[z] = m.Phi.Data[z*m.V+w]
		}
		mat.Normalize(row)
	}
	return out
}

// TopWords returns the n highest-probability words of topic z, for
// interpretability reporting (the paper stresses LDA's interpretable
// parameters as a key advantage for marketing use).
func (m *Model) TopWords(z, n int) []int {
	if z < 0 || z >= m.K {
		panic(fmt.Sprintf("lda: topic %d out of range", z))
	}
	idx := make([]int, m.V)
	for i := range idx {
		idx[i] = i
	}
	row := m.Phi.Row(z)
	// partial selection sort: n is small
	if n > m.V {
		n = m.V
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < m.V; j++ {
			if row[idx[j]] > row[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:n]
}

// ParameterCount returns the number of free parameters, nt + nt*M, the
// figure the paper uses when contrasting LDA's ~156 parameters with the
// LSTM's ~50,000.
func (m *Model) ParameterCount() int { return m.K + m.K*m.V }

type gobModel struct {
	K, V        int
	Alpha, Beta float64
	PhiData     []float64
	InferIters  int
}

// loadV1 deserializes a model in the legacy v1 container: a gob payload of
// gobModel, which nothing here writes any more but which existing files still
// hold. Truncated, bit-flipped and wrong-kind files fail the container's
// integrity checks before any gob decoding runs.
func loadV1(r io.Reader) (*Model, error) {
	var g gobModel
	if err := snapshot.Read(r, KindModel, &g); err != nil {
		return nil, fmt.Errorf("lda: loading model: %w", err)
	}
	if g.K < 1 || g.V < 1 || len(g.PhiData) != g.K*g.V {
		return nil, fmt.Errorf("lda: corrupt model (K=%d, V=%d, phi=%d)", g.K, g.V, len(g.PhiData))
	}
	return &Model{
		K: g.K, V: g.V, Alpha: g.Alpha, Beta: g.Beta,
		Phi: mat.FromSlice(g.K, g.V, g.PhiData), InferIters: g.InferIters,
	}, nil
}

// Checkpoint is a complete sampler snapshot at a sweep boundary: resuming
// from it replays the remaining sweeps on the identical random stream, so
// the final model matches an uninterrupted run byte for byte.
type Checkpoint struct {
	Cfg         ConfigState
	Sweep       int   // completed sweeps
	Assignments []int // per-token topic assignment, in corpus order
	PhiAcc      []float64
	Samples     int
	RNG         [4]uint64
}

// validate checks internal consistency (corpus-dependent checks happen in
// Resume once the documents are known).
func (ck *Checkpoint) validate() error {
	cfg := ck.Cfg.config()
	if err := cfg.validate(); err != nil {
		return fmt.Errorf("lda: checkpoint config: %w", err)
	}
	total := cfg.BurnIn + cfg.Iterations
	if ck.Sweep < 0 || ck.Sweep > total {
		return fmt.Errorf("lda: checkpoint sweep %d outside schedule of %d", ck.Sweep, total)
	}
	if ck.Samples < 0 {
		return fmt.Errorf("lda: checkpoint has negative sample count %d", ck.Samples)
	}
	if len(ck.PhiAcc) != cfg.Topics*cfg.V {
		return fmt.Errorf("lda: checkpoint phi accumulator has %d entries, want %d",
			len(ck.PhiAcc), cfg.Topics*cfg.V)
	}
	for i, z := range ck.Assignments {
		if z < 0 || z >= cfg.Topics {
			return fmt.Errorf("lda: checkpoint assignment %d is topic %d outside [0,%d)", i, z, cfg.Topics)
		}
	}
	return nil
}

// Save serializes the checkpoint into a snapshot container of kind
// KindCheckpoint.
func (ck *Checkpoint) Save(w io.Writer) error {
	return snapshot.Write(w, KindCheckpoint, ck)
}

// LoadCheckpoint deserializes and validates a checkpoint written by Save.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := snapshot.Read(r, KindCheckpoint, ck); err != nil {
		return nil, fmt.Errorf("lda: loading checkpoint: %w", err)
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
