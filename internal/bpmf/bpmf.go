// Package bpmf implements Bayesian Probabilistic Matrix Factorization
// (Salakhutdinov & Mnih, ICML 2008) with the full Gibbs sampler over
// user/item factor matrices and Normal-Wishart hyperpriors. This is the
// matrix-factorization comparator of the paper's Section 5.2: on the dense
// binary company-product matrix (with ownership encoded as rating 1) its
// predictive scores collapse into a narrow band near 1 for almost every
// company-product pair, which is exactly the degenerate behaviour the paper
// reports in Figures 5-6.
package bpmf

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

// Snapshot container kinds for BPMF artifacts.
const (
	KindModel      = "bpmf-model"
	KindCheckpoint = "bpmf-checkpoint"
)

var (
	trainSweeps = obs.Default().Counter("bpmf_train_sweeps_total",
		"Gibbs sweeps completed across all BPMF training runs")
	trainRatings = obs.Default().Counter("bpmf_train_ratings_total",
		"observed ratings visited per sweep across all BPMF training runs")
)

// Rating is one observed (company, product, value) entry. The paper's
// ranking transformation feeds value 1 for owned products.
type Rating struct {
	User, Item int
	Value      float64
}

// Config parameterizes the Gibbs sampler.
type Config struct {
	Rank  int     // latent dimensionality D
	Alpha float64 // observation precision; 0 selects 2
	Beta0 float64 // prior pseudo-count for the Normal-Wishart; 0 selects 2

	Burn, Samples int // Gibbs schedule; 0 selects 20 / 30

	// ClipLo/ClipHi bound per-sample predictions before averaging, the
	// standard BPMF treatment (ratings live in a known range). Both zero
	// selects [0, 1], matching the binary ranking input.
	ClipLo, ClipHi float64

	// Progress, when non-nil, is invoked after every Gibbs sweep with the
	// training RMSE under the current factor draw and rating throughput
	// (TokensPerSec counts ratings). The hook draws no random numbers, so
	// trained models are bit-identical with and without it.
	Progress obs.Progress

	// Checkpoint, when non-nil, receives a full snapshot of the factor
	// matrices, score accumulator and RNG state every CheckpointEvery
	// completed sweeps (and once more on context cancellation). The snapshot
	// owns its memory; the hook draws no random numbers, so checkpointed
	// runs sample bit-identically to unhooked runs. A hook error aborts
	// training.
	Checkpoint func(*Checkpoint) error
	// CheckpointEvery is the sweep interval between Checkpoint calls;
	// 0 disables periodic checkpoints (a cancellation checkpoint is still
	// written when Checkpoint is set).
	CheckpointEvery int
}

// ConfigState is the hookless, serializable part of Config that checkpoints
// embed (captured after defaulting), so Resume continues under exactly the
// schedule the run started with.
type ConfigState struct {
	Rank           int
	Alpha, Beta0   float64
	Burn, Samples  int
	ClipLo, ClipHi float64
}

func (c *Config) state() ConfigState {
	return ConfigState{
		Rank: c.Rank, Alpha: c.Alpha, Beta0: c.Beta0,
		Burn: c.Burn, Samples: c.Samples,
		ClipLo: c.ClipLo, ClipHi: c.ClipHi,
	}
}

func (cs ConfigState) config() Config {
	return Config{
		Rank: cs.Rank, Alpha: cs.Alpha, Beta0: cs.Beta0,
		Burn: cs.Burn, Samples: cs.Samples,
		ClipLo: cs.ClipLo, ClipHi: cs.ClipHi,
	}
}

func (c *Config) fillDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 2
	}
	if c.Beta0 == 0 {
		c.Beta0 = 2
	}
	if c.Burn == 0 {
		c.Burn = 20
	}
	if c.Samples == 0 {
		c.Samples = 30
	}
	if c.ClipLo == 0 && c.ClipHi == 0 {
		c.ClipHi = 1
	}
}

func (c *Config) validate() error {
	if c.Rank < 1 {
		return fmt.Errorf("bpmf: Rank must be positive, got %d", c.Rank)
	}
	if c.Alpha <= 0 || c.Beta0 <= 0 {
		return fmt.Errorf("bpmf: Alpha and Beta0 must be positive")
	}
	if c.Burn < 0 || c.Samples < 1 {
		return fmt.Errorf("bpmf: invalid Gibbs schedule (burn %d, samples %d)", c.Burn, c.Samples)
	}
	if c.ClipHi <= c.ClipLo {
		return fmt.Errorf("bpmf: ClipHi must exceed ClipLo")
	}
	return nil
}

// Model holds the posterior-mean predictive scores. For the paper's scale
// (N up to ~10^6 users but M = 38 items) the full score matrix is modest.
type Model struct {
	N, M   int
	Rank   int
	Scores *mat.Matrix // N x M posterior-mean predictions, clipped
}

// Predict returns the posterior-mean predictive score for (user, item).
func (m *Model) Predict(user, item int) float64 { return m.Scores.At(user, item) }

// indexRatings buckets ratings by user and item, range-checking each entry.
func indexRatings(n, mItems int, ratings []Rating) (byUser, byItem [][]Rating, err error) {
	byUser = make([][]Rating, n)
	byItem = make([][]Rating, mItems)
	for _, r := range ratings {
		if r.User < 0 || r.User >= n || r.Item < 0 || r.Item >= mItems {
			return nil, nil, fmt.Errorf("bpmf: rating (%d,%d) outside %dx%d", r.User, r.Item, n, mItems)
		}
		byUser[r.User] = append(byUser[r.User], r)
		byItem[r.Item] = append(byItem[r.Item], r)
	}
	return byUser, byItem, nil
}

// Train runs the BPMF Gibbs sampler on the observed ratings.
func Train(cfg Config, n, mItems int, ratings []Rating, g *rng.RNG) (*Model, error) {
	return TrainContext(context.Background(), cfg, n, mItems, ratings, g)
}

// TrainContext is Train with cooperative cancellation: ctx is checked at
// every sweep boundary, and on cancellation a final checkpoint is handed to
// cfg.Checkpoint (when set) before returning an error wrapping the context's
// error.
func TrainContext(ctx context.Context, cfg Config, n, mItems int, ratings []Rating, g *rng.RNG) (*Model, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n < 1 || mItems < 1 {
		return nil, fmt.Errorf("bpmf: need positive matrix dimensions, got %dx%d", n, mItems)
	}
	byUser, byItem, err := indexRatings(n, mItems, ratings)
	if err != nil {
		return nil, err
	}

	d := cfg.Rank
	// factor matrices, initialized with small noise
	u := mat.New(n, d)
	v := mat.New(mItems, d)
	for i := range u.Data {
		u.Data[i] = 0.1 * g.Norm()
	}
	for i := range v.Data {
		v.Data[i] = 0.1 * g.Norm()
	}
	return trainLoop(ctx, cfg, ratings, byUser, byItem, u, v, mat.New(n, mItems), 0, 0, g)
}

// Resume continues an interrupted run from a checkpoint. ratings must be the
// same set the original call received; hooks supplies Progress/Checkpoint/
// CheckpointEvery for the continued run while the Gibbs schedule comes from
// the checkpoint. A resumed run draws the same random stream as the
// uninterrupted one, so the final model is bit-identical.
func Resume(ctx context.Context, ck *Checkpoint, ratings []Rating, hooks Config) (*Model, error) {
	cfg := ck.Cfg.config()
	cfg.Progress = hooks.Progress
	cfg.Checkpoint = hooks.Checkpoint
	cfg.CheckpointEvery = hooks.CheckpointEvery
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("bpmf: checkpoint carries invalid config: %w", err)
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	byUser, byItem, err := indexRatings(ck.N, ck.M, ratings)
	if err != nil {
		return nil, err
	}
	u := mat.FromSlice(ck.N, cfg.Rank, append([]float64(nil), ck.U...))
	v := mat.FromSlice(ck.M, cfg.Rank, append([]float64(nil), ck.V...))
	scoreAcc := mat.FromSlice(ck.N, ck.M, append([]float64(nil), ck.ScoreAcc...))
	g, err := rng.FromState(ck.RNG)
	if err != nil {
		return nil, fmt.Errorf("bpmf: checkpoint RNG state: %w", err)
	}
	return trainLoop(ctx, cfg, ratings, byUser, byItem, u, v, scoreAcc, ck.Kept, ck.Sweep, g)
}

// trainLoop runs sweeps startSweep..Burn+Samples-1, mutating the factor
// matrices and score accumulator in place.
func trainLoop(ctx context.Context, cfg Config, ratings []Rating, byUser, byItem [][]Rating, u, v, scoreAcc *mat.Matrix, kept, startSweep int, g *rng.RNG) (*Model, error) {
	n, mItems := u.Rows, v.Rows
	rmse := func() float64 {
		if len(ratings) == 0 {
			return math.NaN()
		}
		var sq float64
		for _, r := range ratings {
			diff := mat.Dot(u.Row(r.User), v.Row(r.Item)) - r.Value
			sq += diff * diff
		}
		return math.Sqrt(sq / float64(len(ratings)))
	}
	err := train.Loop[*Checkpoint]{
		Name: "bpmf", Prefix: "bpmf", Unit: "sweep",
		Start: startSweep, Total: cfg.Burn + cfg.Samples,
		Progress: cfg.Progress, Checkpoint: cfg.Checkpoint, Every: cfg.CheckpointEvery,
		Snapshot: func(sweep int) *Checkpoint { return snapshotState(&cfg, u, v, scoreAcc, kept, sweep, g) },
		Step: func(sweep int) (int, func() float64, error) {
			muU, lamU, err := sampleHyper(u, cfg.Beta0, g)
			if err != nil {
				return 0, nil, fmt.Errorf("bpmf: sampling user hyperparameters: %w", err)
			}
			if err := sampleFactors(u, v, byUser, muU, lamU, cfg.Alpha, g); err != nil {
				return 0, nil, fmt.Errorf("bpmf: sampling user factors: %w", err)
			}
			muV, lamV, err := sampleHyper(v, cfg.Beta0, g)
			if err != nil {
				return 0, nil, fmt.Errorf("bpmf: sampling item hyperparameters: %w", err)
			}
			if err := sampleFactors(v, u, byItemSwapped(byItem), muV, lamV, cfg.Alpha, g); err != nil {
				return 0, nil, fmt.Errorf("bpmf: sampling item factors: %w", err)
			}
			if sweep >= cfg.Burn {
				// Score accumulation is RNG-free and each task touches only its
				// own accumulator row with unchanged per-row arithmetic order, so
				// the fan-out is bit-identical at any worker count.
				_ = par.ForEach(context.Background(), n, func(i int) error {
					urow := u.Row(i)
					srow := scoreAcc.Row(i)
					for j := 0; j < mItems; j++ {
						p := mat.Dot(urow, v.Row(j))
						if p < cfg.ClipLo {
							p = cfg.ClipLo
						}
						if p > cfg.ClipHi {
							p = cfg.ClipHi
						}
						srow[j] += p
					}
					return nil
				})
				kept++
			}
			trainSweeps.Inc()
			trainRatings.Add(uint64(len(ratings)))
			return len(ratings), rmse, nil
		},
	}.Run(ctx)
	if err != nil {
		return nil, err
	}
	scoreAcc.Scale(1 / float64(kept))
	return &Model{N: n, M: mItems, Rank: cfg.Rank, Scores: scoreAcc}, nil
}

// byItemSwapped flips (user, item) so sampleFactors can treat items as the
// "users" of the transposed problem.
func byItemSwapped(byItem [][]Rating) [][]Rating {
	out := make([][]Rating, len(byItem))
	for j, rs := range byItem {
		sw := make([]Rating, len(rs))
		for k, r := range rs {
			sw[k] = Rating{User: r.Item, Item: r.User, Value: r.Value}
		}
		out[j] = sw
	}
	return out
}

// sampleHyper draws (mu, Lambda) from the Normal-Wishart posterior given the
// factor matrix rows (Salakhutdinov & Mnih, Eq. 14). Priors: mu0 = 0,
// W0 = I, nu0 = D.
func sampleHyper(f *mat.Matrix, beta0 float64, g *rng.RNG) ([]float64, *mat.Matrix, error) {
	n := float64(f.Rows)
	d := f.Cols
	mean := make([]float64, d)
	for i := 0; i < f.Rows; i++ {
		mat.AxpyVec(1, f.Row(i), mean)
	}
	if f.Rows > 0 {
		mat.ScaleVec(1/n, mean)
	}
	// scatter S = 1/n Σ (x - mean)(x - mean)ᵀ
	s := mat.New(d, d)
	diff := make([]float64, d)
	for i := 0; i < f.Rows; i++ {
		row := f.Row(i)
		for k := 0; k < d; k++ {
			diff[k] = row[k] - mean[k]
		}
		mat.OuterAccum(s, 1, diff, diff)
	}
	if f.Rows > 0 {
		s.Scale(1 / n)
	}
	// posterior Wishart parameters
	beta := beta0 + n
	nu := float64(d) + n
	// W*⁻¹ = W0⁻¹ + n S + (beta0 n / beta) mean meanᵀ   (mu0 = 0)
	winv := mat.Identity(d)
	winv.AxpyInPlace(n, s)
	mat.OuterAccum(winv, beta0*n/beta, mean, mean)
	w, err := mat.InverseSPD(winv)
	if err != nil {
		return nil, nil, err
	}
	wchol, err := mat.CholeskyJittered(w, 1e-10, 12)
	if err != nil {
		return nil, nil, err
	}
	lambda := g.Wishart(nu, wchol)
	// mu ~ N(mu*, (beta Lambda)⁻¹), mu* = n mean / beta (mu0 = 0)
	muStar := make([]float64, d)
	for k := 0; k < d; k++ {
		muStar[k] = n * mean[k] / beta
	}
	prec := lambda.Clone()
	prec.Scale(beta)
	cov, err := mat.InverseSPD(prec)
	if err != nil {
		return nil, nil, err
	}
	cchol, err := mat.CholeskyJittered(cov, 1e-12, 12)
	if err != nil {
		return nil, nil, err
	}
	mu := g.MVNormal(muStar, cchol)
	return mu, lambda, nil
}

// sampleFactors resamples every row of f from its Gaussian full conditional
// given the other-side factors in other and the per-row observed ratings.
func sampleFactors(f, other *mat.Matrix, obs [][]Rating, mu []float64, lambda *mat.Matrix, alpha float64, g *rng.RNG) error {
	d := f.Cols
	lamMu := mat.MulVec(lambda, mu)
	prec := mat.New(d, d)
	rhs := make([]float64, d)
	for i := 0; i < f.Rows; i++ {
		prec.CopyFrom(lambda)
		copy(rhs, lamMu)
		for _, r := range obs[i] {
			vrow := other.Row(r.Item)
			mat.OuterAccum(prec, alpha, vrow, vrow)
			mat.AxpyVec(alpha*r.Value, vrow, rhs)
		}
		cov, err := mat.InverseSPD(prec)
		if err != nil {
			return err
		}
		mean := mat.MulVec(cov, rhs)
		cchol, err := mat.CholeskyJittered(cov, 1e-12, 12)
		if err != nil {
			return err
		}
		copy(f.Row(i), g.MVNormal(mean, cchol))
	}
	return nil
}

type gobModel struct {
	N, M, Rank int
	Scores     []float64
}

// Save serializes the model into a checksummed snapshot container of kind
// KindModel.
func (m *Model) Save(w io.Writer) error {
	return snapshot.Write(w, KindModel, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(gobModel{N: m.N, M: m.M, Rank: m.Rank, Scores: m.Scores.Data})
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
		return nil, fmt.Errorf("bpmf: loading model: %w", err)
	}
	if g.N < 1 || g.M < 1 || len(g.Scores) != g.N*g.M {
		return nil, fmt.Errorf("bpmf: corrupt model")
	}
	return &Model{N: g.N, M: g.M, Rank: g.Rank, Scores: mat.FromSlice(g.N, g.M, g.Scores)}, nil
}

// ScoreDistribution returns all predicted scores flattened, for the paper's
// Figure 5 boxplot.
func (m *Model) ScoreDistribution() []float64 {
	out := make([]float64, len(m.Scores.Data))
	copy(out, m.Scores.Data)
	return out
}

// RMSE computes root-mean-squared error of predictions against ratings.
func (m *Model) RMSE(ratings []Rating) float64 {
	if len(ratings) == 0 {
		return math.NaN()
	}
	var s float64
	for _, r := range ratings {
		d := m.Predict(r.User, r.Item) - r.Value
		s += d * d
	}
	return math.Sqrt(s / float64(len(ratings)))
}
