package lda

import (
	"fmt"
	"math"
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
// every seventh has one token, so both shortcuts land inside blocks and on
// their edges.
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

// TestRepresentationsMatchSequentialLoop pins the contract of the
// block-parallel fold-in: at any worker count the matrix is Float64bits-equal
// to the naive loop that threads one generator through InferTheta, and the
// caller's generator ends in the same state (eval/clustering keeps drawing
// from it). K = 3 and 7 take Intn's rejection branch, whose draw count
// depends on the stream; the N values straddle the 512-document block.
func TestRepresentationsMatchSequentialLoop(t *testing.T) {
	defer par.SetWorkers(0)
	setup := rng.New(17)
	for _, k := range []int{2, 3, 4, 7} {
		m := randomModel(k, 11, setup)
		for _, n := range []int{0, 1, 511, 512, 513, 1025} {
			docs := randomDocs(n, m.V, setup)
			seed := setup.Int63()

			ref := rng.New(seed)
			want := mat.New(n, k)
			for d, doc := range docs {
				copy(want.Row(d), m.InferTheta(doc, ref))
			}

			for _, workers := range []int{1, 2, 4} {
				par.SetWorkers(workers)
				g := rng.New(seed)
				got := m.Representations(docs, g)
				name := fmt.Sprintf("K=%d N=%d workers=%d", k, n, workers)
				if got.Rows != n || got.Cols != k {
					t.Fatalf("%s: shape %dx%d", name, got.Rows, got.Cols)
				}
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%s: row %d col %d = %v, sequential loop gives %v",
							name, i/k, i%k, got.Data[i], want.Data[i])
					}
				}
				if g.State() != ref.State() {
					t.Fatalf("%s: generator state after Representations differs from the sequential loop's", name)
				}
			}
		}
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
