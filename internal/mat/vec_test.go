package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDotNormKnown(t *testing.T) {
	x := []float64{3, 4}
	if Dot(x, x) != 25 {
		t.Fatalf("Dot = %v", Dot(x, x))
	}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
}

func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i] = r.NormFloat64(), r.NormFloat64()
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubAxpyVec(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	AxpyVec(2, x, y) // y += 2x
	if y[0] != 6 || y[2] != 12 {
		t.Fatalf("AxpyVec = %v", y)
	}
}

func TestNormalizeSumsToOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64() + 0.01
		}
		Normalize(x)
		return almostEq(SumVec(x), 1, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeDegenerate(t *testing.T) {
	x := []float64{0, 0, 0, 0}
	Normalize(x)
	for _, v := range x {
		if !almostEq(v, 0.25, 1e-12) {
			t.Fatalf("degenerate Normalize = %v", x)
		}
	}
	y := []float64{math.NaN(), 1}
	Normalize(y)
	if !almostEq(y[0], 0.5, 1e-12) {
		t.Fatalf("NaN Normalize = %v", y)
	}
}

func TestSqDistTriangleProperty(t *testing.T) {
	// sqrt(SqDist) obeys triangle inequality
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
		}
		dab := math.Sqrt(SqDist(a, b))
		dbc := math.Sqrt(SqDist(b, c))
		dac := math.Sqrt(SqDist(a, c))
		return dac <= dab+dbc+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCosineSim(t *testing.T) {
	if got := CosineSim([]float64{1, 0}, []float64{0, 1}); !almostEq(got, 0, 1e-12) {
		t.Fatalf("orthogonal cos = %v", got)
	}
	if got := CosineSim([]float64{2, 2}, []float64{1, 1}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("parallel cos = %v", got)
	}
	if got := CosineSim([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Fatalf("zero-vector cos = %v", got)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax(nil) != -1 {
		t.Fatal("ArgMax(nil) != -1")
	}
	if ArgMax([]float64{1, 5, 5, 2}) != 1 {
		t.Fatal("ArgMax should return first max")
	}
}

func TestLogSumExpStability(t *testing.T) {
	x := []float64{1000, 1000}
	if got := LogSumExp(x); !almostEq(got, 1000+math.Log(2), 1e-9) {
		t.Fatalf("LogSumExp = %v", got)
	}
	if got := LogSumExp([]float64{-2000, -2000}); !almostEq(got, -2000+math.Log(2), 1e-9) {
		t.Fatalf("LogSumExp small = %v", got)
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Fatalf("LogSumExp(nil) = %v", got)
	}
}

func TestSoftmaxProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		out := make([]float64, n)
		Softmax(out, x)
		if !almostEq(SumVec(out), 1, 1e-9) {
			return false
		}
		for _, v := range out {
			if v < 0 || v > 1 {
				return false
			}
		}
		// order preserved
		return ArgMax(out) == ArgMax(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxAliasing(t *testing.T) {
	x := []float64{1, 2, 3}
	Softmax(x, x)
	if !almostEq(SumVec(x), 1, 1e-12) {
		t.Fatalf("aliased softmax = %v", x)
	}
}
