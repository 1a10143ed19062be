package lda

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
)

// randomModel is an untrained model with Dirichlet topic rows: fold-in only
// reads Phi, so the differential test needs shapes, not a fitted model.
func randomModel(k, v int, g *rng.RNG) *Model {
	phi := mat.New(k, v)
	for z := 0; z < k; z++ {
		g.DirichletTo(phi.Row(z), constVec(v, 0.3))
	}
	return &Model{K: k, V: v, Alpha: 0.1, Beta: 0.01, Phi: phi, InferIters: 6}
}

func constVec(n int, x float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = x
	}
	return out
}

// randomDocs draws n documents of 0..8 tokens; every fifth is empty and
// every seventh has one token, so both shortcuts land on shard edges too.
func randomDocs(n, v int, g *rng.RNG) [][]int {
	docs := make([][]int, n)
	for d := range docs {
		var length int
		switch {
		case d%5 == 0:
			length = 0
		case d%7 == 0:
			length = 1
		default:
			length = 2 + g.Intn(7)
		}
		docs[d] = make([]int, length)
		for i := range docs[d] {
			docs[d][i] = g.Intn(v)
		}
	}
	return docs
}

// requireBitsEqual fails unless rows [0, got.Rows) of got and want are
// Float64bits-equal, skipping row skip (-1 skips none).
func requireBitsEqual(t *testing.T, name string, got, want *mat.Matrix, skip int) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if i/want.Cols == skip {
			continue
		}
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: row %d col %d = %v, want %v", name, i/want.Cols, i%want.Cols, got.Data[i], want.Data[i])
		}
	}
}

// TestRepresentationsRowStreams pins the per-row contract: row d is
// InferTheta(docs[d], New(rowSeed(base, d))) with base the one Int63 drawn
// from the caller's generator, and workers 1, 2 and 4 give the same bits.
// K = 3 and 7 take Intn's rejection branch; N = 513 is split unevenly over
// shards at every worker count.
func TestRepresentationsRowStreams(t *testing.T) {
	defer par.SetWorkers(0)
	setup := rng.New(17)
	for _, k := range []int{2, 3, 4, 7} {
		m := randomModel(k, 11, setup)
		for _, n := range []int{0, 1, 513} {
			docs := randomDocs(n, m.V, setup)
			seed := setup.Int63()

			ref := rng.New(seed)
			base := ref.Int63()
			want := mat.New(n, k)
			for d, doc := range docs {
				copy(want.Row(d), m.InferTheta(doc, rng.New(rowSeed(base, d))))
			}

			for _, workers := range []int{1, 2, 4} {
				par.SetWorkers(workers)
				g := rng.New(seed)
				name := fmt.Sprintf("K=%d N=%d workers=%d", k, n, workers)
				requireBitsEqual(t, name, m.Representations(docs, g), want, -1)
				if g.State() != ref.State() {
					t.Fatalf("%s: Representations drew more than one value from the caller's generator", name)
				}
			}
		}
	}
}

// TestRepresentationsRowOwnDocument edits one document and checks that every
// other row keeps its bits while the edited row moves: a company's
// representation depends on its own install base only.
func TestRepresentationsRowOwnDocument(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(2)
	m := randomModel(4, 11, rng.New(5))
	docs := randomDocs(513, m.V, rng.New(6))
	before := m.Representations(docs, rng.New(7))
	const edited = 101
	docs[edited] = []int{(docs[edited][0] + 1) % m.V, 3, 9}
	after := m.Representations(docs, rng.New(7))
	requireBitsEqual(t, "one document edited", after, before, edited)
	if slices.Equal(after.Row(edited), before.Row(edited)) {
		t.Fatalf("row %d did not move when its document changed", edited)
	}
}

// TestRepresentationsBadTokenPanicsOnCaller keeps the out-of-vocabulary
// panic recoverable by the caller: raised inside a pool worker it would take
// the process down instead.
func TestRepresentationsBadTokenPanicsOnCaller(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(4)
	m := randomModel(3, 5, rng.New(1))
	docs := randomDocs(600, m.V, rng.New(2))
	docs[598] = []int{1, 5}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "token 5 outside vocabulary [0,5)") {
			t.Fatalf("recovered %q, want the out-of-vocabulary panic", msg)
		}
	}()
	m.Representations(docs, rng.New(3))
	t.Fatal("out-of-vocabulary token accepted")
}

// BenchmarkRepresentations is the fold-in layer at the serving benchmark's
// shape (100k generated companies, four topics), for benchstat comparisons
// without the end-to-end harness:
//
//	go test ./internal/lda -run '^$' -bench BenchmarkRepresentations -cpu 1,2 -count 5
func BenchmarkRepresentations(b *testing.B) {
	gen, err := datagen.NewGenerator(datagen.DefaultConfig(100000, 1))
	if err != nil {
		b.Fatal(err)
	}
	docs := gen.Generate().Sets()
	m, err := Train(Config{Topics: 4, V: 38, BurnIn: 5, Iterations: 10}, docs[:2000], nil, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("K4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reps := m.Representations(docs, rng.New(1))
			if reps.Rows != len(docs) {
				b.Fatalf("rows = %d", reps.Rows)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(docs)), "ns/doc")
	})
}
