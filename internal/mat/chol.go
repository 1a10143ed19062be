package mat

import (
	"errors"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization encounters a matrix
// that is not symmetric positive definite.
var ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")

// Cholesky computes the lower-triangular factor L such that a = L Lᵀ.
// a must be square and symmetric positive definite; only the lower triangle
// of a is read.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("mat: Cholesky of non-square matrix")
	}
	n := a.Rows
	l := New(n, n)
	for j := 0; j < n; j++ {
		var d float64 = a.At(j, j)
		lrow := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lrow[k] * lrow[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		ljj := math.Sqrt(d)
		lrow[j] = ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			irow := l.Row(i)
			for k := 0; k < j; k++ {
				s -= irow[k] * lrow[k]
			}
			irow[j] = s / ljj
		}
	}
	return l, nil
}

// CholeskyJittered factors a, adding jitter*I (doubling on each failure, up
// to maxTries) when a is numerically indefinite. It is used by samplers whose
// scatter matrices can become near-singular.
func CholeskyJittered(a *Matrix, jitter float64, maxTries int) (*Matrix, error) {
	l, err := Cholesky(a)
	if err == nil {
		return l, nil
	}
	work := a.Clone()
	for t := 0; t < maxTries; t++ {
		for i := 0; i < work.Rows; i++ {
			work.Data[i*work.Cols+i] += jitter
		}
		if l, err = Cholesky(work); err == nil {
			return l, nil
		}
		jitter *= 10
	}
	return nil, err
}

// SolveLowerTri solves L x = b for lower-triangular L (forward substitution).
func SolveLowerTri(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("mat: SolveLowerTri dimension mismatch")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	return x
}

// SolveUpperTriFromLowerT solves Lᵀ x = b given lower-triangular L
// (back substitution against the transpose, without materializing it).
func SolveUpperTriFromLowerT(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("mat: SolveUpperTriFromLowerT dimension mismatch")
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// InverseSPD computes the inverse of a symmetric positive definite matrix.
func InverseSPD(a *Matrix) (*Matrix, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := New(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		y := SolveLowerTri(l, e)
		x := SolveUpperTriFromLowerT(l, y)
		for i := 0; i < n; i++ {
			inv.Data[i*n+j] = x[i]
		}
	}
	inv.Symmetrize()
	return inv, nil
}
