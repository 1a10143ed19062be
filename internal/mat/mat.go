// Package mat provides dense matrix and vector operations used by the
// model substrates (BPMF Gibbs sampling, LSTM training, t-SNE, clustering).
//
// The package is deliberately small and allocation-conscious: matrices are
// row-major float64 slices, and most operations offer an in-place or
// destination-passing variant so hot loops (Gibbs sweeps, BPTT steps) can
// reuse buffers.
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// A Matrix may be frozen: its Data then aliases read-only memory (typically
// an IBSNAP v2 mmap, where a write would fault with SIGSEGV on the
// PROT_READ mapping) and the in-place mutators panic with a clear message
// instead. Training and other writers call Mutable to get a private copy —
// copy-on-train, so the zero-copy serving path stays safe.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
	frozen     bool      // unexported: ignored by gob, never serialized
}

// FrozenFromSlice wraps data like FromSlice and marks the matrix frozen.
// Use for matrices aliasing read-only memory (mmap-backed model sections).
func FrozenFromSlice(rows, cols int, data []float64) *Matrix {
	m := FromSlice(rows, cols, data)
	m.frozen = true
	return m
}

// Frozen reports whether m rejects in-place mutation.
func (m *Matrix) Frozen() bool { return m.frozen }

// Mutable returns m if it is writable, or a deep writable copy if frozen.
// Callers that might hold an mmap-aliased matrix (anything loaded through
// the v2 snapshot path) must route writes through Mutable.
func (m *Matrix) Mutable() *Matrix {
	if !m.frozen {
		return m
	}
	return m.Clone()
}

// mutable panics when m is frozen; every in-place mutator calls it first so
// a write to an mmap-backed matrix fails loudly instead of faulting.
func (m *Matrix) mutable(op string) {
	if m.frozen {
		panic("mat: " + op + " on frozen matrix (mmap-backed? use Mutable() for a writable copy)")
	}
}

// New returns a zero-valued Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major, length rows*cols) in a Matrix without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.mutable("Set")
	m.Data[i*m.Cols+j] = v
}

// Row returns a view of row i (no copy). The view is writable Go-wise even
// on a frozen matrix — it is the caller's contract not to write through
// views of frozen matrices (reads are the serving hot path and cannot
// afford a per-row branch; a write to an mmap-backed row faults).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m. Dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mutable("CopyFrom")
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("mat: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	m.mutable("Zero")
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every element of m by s, in place.
func (m *Matrix) Scale(s float64) {
	m.mutable("Scale")
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AxpyInPlace performs m += alpha*b element-wise.
func (m *Matrix) AxpyInPlace(alpha float64, b *Matrix) {
	m.mutable("AxpyInPlace")
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("mat: AxpyInPlace dimension mismatch")
	}
	for i := range m.Data {
		m.Data[i] += alpha * b.Data[i]
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Mul computes a*b into a new matrix.
func Mul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MulTo(out, a, b)
	return out
}

// MulTo computes dst = a*b. dst must be pre-sized a.Rows×b.Cols and must not
// alias a or b.
func MulTo(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulTo destination dimension mismatch")
	}
	dst.Zero()
	// ikj loop order: streams through b and dst rows for cache friendliness.
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MulVec computes a * x for a vector x of length a.Cols.
func MulVec(a *Matrix, x []float64) []float64 {
	out := make([]float64, a.Rows)
	MulVecTo(out, a, x)
	return out
}

// MulVecTo computes dst = a*x. dst must have length a.Rows and not alias x.
func MulVecTo(dst []float64, a *Matrix, x []float64) {
	if a.Cols != len(x) {
		panic("mat: MulVec dimension mismatch")
	}
	if len(dst) != a.Rows {
		panic("mat: MulVecTo destination length mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MulVecTransTo computes dst = aᵀ*x (length a.Cols) without materializing aᵀ.
func MulVecTransTo(dst []float64, a *Matrix, x []float64) {
	if a.Rows != len(x) {
		panic("mat: MulVecTrans dimension mismatch")
	}
	if len(dst) != a.Cols {
		panic("mat: MulVecTransTo destination length mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.Row(i)
		for j, v := range row {
			dst[j] += xi * v
		}
	}
}

// OuterAccum accumulates dst += alpha * x yᵀ where dst is len(x)×len(y).
func OuterAccum(dst *Matrix, alpha float64, x, y []float64) {
	if dst.Rows != len(x) || dst.Cols != len(y) {
		panic("mat: OuterAccum dimension mismatch")
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := dst.Row(i)
		a := alpha * xi
		for j, yj := range y {
			row[j] += a * yj
		}
	}
}

// Symmetrize replaces m with (m + mᵀ)/2. m must be square.
func (m *Matrix) Symmetrize() {
	m.mutable("Symmetrize")
	if m.Rows != m.Cols {
		panic("mat: Symmetrize on non-square matrix")
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (m.Data[i*n+j] + m.Data[j*n+i]) / 2
			m.Data[i*n+j] = v
			m.Data[j*n+i] = v
		}
	}
}

// Trace returns the trace of a square matrix.
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic("mat: Trace on non-square matrix")
	}
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// Equal reports whether a and b have identical shape and every pair of
// elements differs by at most tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("%dx%d[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// NearestByCosine returns the k rows of m most cosine-similar to row w,
// most similar first and excluding w itself; equal similarities keep row
// order. Fewer than k other rows returns them all.
func NearestByCosine(m *Matrix, w, k int) []int {
	type cand struct {
		id  int
		sim float64
	}
	var cands []cand
	for o := 0; o < m.Rows; o++ {
		if o == w {
			continue
		}
		cands = append(cands, cand{o, CosineSim(m.Row(w), m.Row(o))})
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].sim > cands[j-1].sim; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := range out {
		out[i] = cands[i].id
	}
	return out
}
