package mat

import "math"

// Vector helpers operate on plain []float64 slices so callers can use them
// on matrix rows without conversion.

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// AxpyVec performs y += alpha*x in place.
func AxpyVec(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: AxpyVec length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// ScaleVec multiplies x by s in place.
func ScaleVec(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}

// SumVec returns the sum of the elements of x.
func SumVec(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Normalize scales x in place so its elements sum to 1. If the sum is zero
// or non-finite the vector is set uniform. Returns the original sum.
func Normalize(x []float64) float64 {
	s := SumVec(x)
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		u := 1.0 / float64(len(x))
		for i := range x {
			x[i] = u
		}
		return s
	}
	inv := 1 / s
	for i := range x {
		x[i] *= inv
	}
	return s
}

// SqDist returns the squared Euclidean distance between x and y.
func SqDist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: SqDist length mismatch")
	}
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return s
}

// CosineSim returns the cosine similarity of x and y, or 0 when either
// vector is all-zero.
func CosineSim(x, y []float64) float64 {
	nx, ny := Norm2(x), Norm2(y)
	if nx == 0 || ny == 0 {
		return 0
	}
	return Dot(x, y) / (nx * ny)
}

// ArgMax returns the index of the largest element (first on ties), or -1 for
// an empty slice.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, arg := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, arg = v, i+1
		}
	}
	return arg
}

// LogSumExp returns log Σ exp(x_i) computed stably.
func LogSumExp(x []float64) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	mx := x[0]
	for _, v := range x[1:] {
		if v > mx {
			mx = v
		}
	}
	if math.IsInf(mx, -1) {
		return mx
	}
	var s float64
	for _, v := range x {
		s += math.Exp(v - mx)
	}
	return mx + math.Log(s)
}

// Softmax writes the softmax of x into dst (may alias x).
func Softmax(dst, x []float64) {
	if len(dst) != len(x) {
		panic("mat: Softmax length mismatch")
	}
	lse := LogSumExp(x)
	for i, v := range x {
		dst[i] = math.Exp(v - lse)
	}
}
