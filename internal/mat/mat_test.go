package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func TestNewAndAtSet(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("unexpected shape: %+v", m)
	}
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Fatalf("fresh matrix not zeroed")
	}
}

func TestFromSliceNoCopy(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	m := FromSlice(2, 2, d)
	d[0] = 9
	if m.At(0, 0) != 9 {
		t.Fatal("FromSlice should wrap, not copy")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestIdentity(t *testing.T) {
	i3 := Identity(3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if i3.At(r, c) != want {
				t.Fatalf("Identity(3)[%d,%d] = %v", r, c, i3.At(r, c))
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(6)
		m := randMatrix(r, n, n)
		return Equal(Mul(m, Identity(n)), m, 1e-12) && Equal(Mul(Identity(n), m), m, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMatrix(r, 2+r.Intn(4), 2+r.Intn(4))
		b := randMatrix(r, a.Cols, 2+r.Intn(4))
		c := randMatrix(r, b.Cols, 2+r.Intn(4))
		return Equal(Mul(Mul(a, b), c), Mul(a, Mul(b, c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMatrix(r, 1+r.Intn(5), 1+r.Intn(5))
		return Equal(a.Transpose().Transpose(), a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeMulProperty(t *testing.T) {
	// (AB)ᵀ == Bᵀ Aᵀ
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMatrix(r, 2+r.Intn(4), 2+r.Intn(4))
		b := randMatrix(r, a.Cols, 2+r.Intn(4))
		return Equal(Mul(a, b).Transpose(), Mul(b.Transpose(), a.Transpose()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := randMatrix(r, 4, 5)
	x := make([]float64, 5)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	got := MulVec(a, x)
	xm := FromSlice(5, 1, x)
	want := Mul(a, xm)
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestMulVecTransTo(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := randMatrix(r, 4, 3)
	x := []float64{1, -2, 0.5, 3}
	dst := make([]float64, 3)
	MulVecTransTo(dst, a, x)
	want := MulVec(a.Transpose(), x)
	for i := range dst {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVecTransTo[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestOuterAccum(t *testing.T) {
	dst := New(2, 3)
	OuterAccum(dst, 2, []float64{1, 2}, []float64{3, 4, 5})
	want := FromSlice(2, 3, []float64{6, 8, 10, 12, 16, 20})
	if !Equal(dst, want, 1e-12) {
		t.Fatalf("OuterAccum = %v, want %v", dst, want)
	}
	// accumulate again: doubles
	OuterAccum(dst, 2, []float64{1, 2}, []float64{3, 4, 5})
	want.Scale(2)
	if !Equal(dst, want, 1e-12) {
		t.Fatalf("second OuterAccum = %v, want %v", dst, want)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	c := a.Clone()
	c.AddInPlace(b)
	if !Equal(c, FromSlice(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Fatal("AddInPlace wrong")
	}
	c.SubInPlace(b)
	if !Equal(c, a, 0) {
		t.Fatal("SubInPlace wrong")
	}
	c.Scale(3)
	if !Equal(c, FromSlice(2, 2, []float64{3, 6, 9, 12}), 0) {
		t.Fatal("Scale wrong")
	}
	c.AxpyInPlace(-1, FromSlice(2, 2, []float64{3, 6, 9, 12}))
	if c.MaxAbs() != 0 {
		t.Fatal("AxpyInPlace wrong")
	}
}

func TestSymmetrizeAndTrace(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 4, 2, 3})
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("Symmetrize wrong: %v", m)
	}
	if m.Trace() != 4 {
		t.Fatalf("Trace = %v, want 4", m.Trace())
	}
}

func TestCholeskyRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		// build SPD matrix a = g gᵀ + n*I
		g := randMatrix(r, n, n)
		a := Mul(g, g.Transpose())
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += float64(n)
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		return Equal(Mul(l, l.Transpose()), a, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotSPD")
	}
}

func TestCholeskyJittered(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 1, 1, 1}) // PSD but singular
	l, err := CholeskyJittered(a, 1e-8, 20)
	if err != nil {
		t.Fatalf("CholeskyJittered failed: %v", err)
	}
	if l.At(0, 0) <= 0 {
		t.Fatal("invalid factor")
	}
}

func TestSolveSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		g := randMatrix(r, n, n)
		a := Mul(g, g.Transpose())
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += float64(n)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := MulVec(a, x)
		got, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseSPD(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 5
	g := randMatrix(r, n, n)
	a := Mul(g, g.Transpose())
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += float64(n)
	}
	inv, err := InverseSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(Mul(a, inv), Identity(n), 1e-8) {
		t.Fatalf("A * A⁻¹ != I")
	}
}

func TestLogDetFromChol(t *testing.T) {
	// diag(4, 9): |A| = 36, log = log 36
	a := FromSlice(2, 2, []float64{4, 0, 0, 9})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := LogDetFromChol(l); math.Abs(got-math.Log(36)) > 1e-12 {
		t.Fatalf("LogDet = %v, want %v", got, math.Log(36))
	}
}

func TestRowColClone(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	row := m.Row(1)
	row[0] = 40 // Row is a view
	if m.At(1, 0) != 40 {
		t.Fatal("Row should be a view")
	}
	col := m.Col(2)
	col[0] = 99 // Col is a copy
	if m.At(0, 2) == 99 {
		t.Fatal("Col should be a copy")
	}
	cl := m.Clone()
	cl.Set(0, 0, -1)
	if m.At(0, 0) == -1 {
		t.Fatal("Clone should deep-copy")
	}
}

func TestMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestNearestByCosine(t *testing.T) {
	m := FromSlice(5, 2, []float64{
		1, 0, // query
		0, 1, // orthogonal
		2, 0.1, // nearly parallel
		1, 1, // 45 degrees
		0, 0, // zero row: similarity 0, ties with row 1 and stays after it
	})
	got := NearestByCosine(m, 0, 10)
	want := []int{2, 3, 1, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v (every row but the query)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
		if i > 0 && CosineSim(m.Row(0), m.Row(got[i])) > CosineSim(m.Row(0), m.Row(got[i-1])) {
			t.Fatalf("neighbours %v not similarity-descending at %d", got, i)
		}
	}
	if top := NearestByCosine(m, 0, 2); len(top) != 2 || top[0] != 2 || top[1] != 3 {
		t.Fatalf("k=2: got %v, want [2 3]", top)
	}
}
