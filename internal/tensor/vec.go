// Package tensor implements the dense numeric kernels the neural-network
// substrate is built on: vector primitives, a 2-D matrix type with blocked,
// parallel multiplication, and the im2col transform used by convolution.
//
// What is blocked is the output row: a·b and aᵀ·b hold a 16-column tile of
// one output row in registers across the whole inner-dimension loop and
// store it once (an SSE2 kernel on amd64, gemm_amd64.s; elsewhere the
// portable loop streams one axpy per inner index), and a·bᵀ produces four
// output columns per pass from four independent dot-product chains. Large
// products give each GOMAXPROCS worker one contiguous block of output rows
// via internal/parallel. No kernel reorders a floating-point sum: every
// fast path is bit-identical to the plain loop it replaced (DESIGN.md §2a).
//
// Everything operates on float64. The federated-learning experiments spend
// almost all of their CPU time in these kernels, so the hot paths avoid
// bounds checks where the compiler can prove ranges.
package tensor

import "unsafe"

// The element-wise kernels below are unrolled 4-wide with the length
// equality hoisted into a reslice, which lets the compiler drop the
// per-element bounds checks. The unrolling never reorders floating-point
// operations: each statement handles exactly one element, in the same
// order as the plain loop it replaced, so results are bit-identical for
// every input — including aliased or overlapping x/y (the golden runs pin
// this).

// Axpy computes y += a*x element-wise. x and y must have equal length.
// The loop writes y[i] before it reads x[i+1], so when x and y overlap with
// a skew, later reads see earlier writes, exactly as in the plain loop.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// overlaps reports whether x and y share at least one element: the
// pointer-range test behind the GEMMs' no-alias panic (checkNoAlias).
func overlaps(x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	xs := uintptr(unsafe.Pointer(&x[0]))
	ys := uintptr(unsafe.Pointer(&y[0]))
	return xs < ys+uintptr(len(y))*8 && ys < xs+uintptr(len(x))*8
}

// dot returns the inner product of x and y. The unroll keeps a single
// accumulator with strictly sequential adds — the exact summation order of
// the naive loop.
func dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	y = y[:len(x)]
	s := 0.0
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s += x[i] * y[i]
		s += x[i+1] * y[i+1]
		s += x[i+2] * y[i+2]
		s += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// Scale multiplies every element of x by a, in place.
func Scale(a float64, x []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x[i] *= a
		x[i+1] *= a
		x[i+2] *= a
		x[i+3] *= a
	}
	for ; i < len(x); i++ {
		x[i] *= a
	}
}

// AddTo computes dst[i] += src[i].
func AddTo(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: AddTo length mismatch")
	}
	dst = dst[:len(src)]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for ; i < len(src); i++ {
		dst[i] += src[i]
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Zero sets every element of x to 0.
func Zero(x []float64) {
	clear(x)
}

// EnsureVec returns a slice of length n, reusing buf's storage when its
// capacity suffices (no alloc) and allocating otherwise. Contents are
// unspecified: callers must fully overwrite before reading. This is the
// capacity-based reuse primitive behind the steady-state zero-alloc hot
// path — buffers grown once keep serving smaller and equal sizes forever.
func EnsureVec(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// Copy returns a fresh copy of x.
func Copy(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// SqDist returns the squared Euclidean distance between x and y.
func SqDist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("tensor: SqDist length mismatch")
	}
	s := 0.0
	for i, xv := range x {
		d := xv - y[i]
		s += d * d
	}
	return s
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// maxOf returns the maximum element of x and its index. It panics on empty x.
func maxOf(x []float64) (float64, int) {
	if len(x) == 0 {
		panic("tensor: Max of empty slice")
	}
	best, arg := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, arg = v, i+1
		}
	}
	return best, arg
}

// ArgMax returns the index of the maximum element of x.
func ArgMax(x []float64) int {
	_, i := maxOf(x)
	return i
}

// Lerp linearly interpolates dst = (1-t)*dst + t*src, in place on dst.
func Lerp(dst, src []float64, t float64) {
	if len(dst) != len(src) {
		panic("tensor: Lerp length mismatch")
	}
	src = src[:len(dst)]
	u := 1 - t
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = u*dst[i] + t*src[i]
		dst[i+1] = u*dst[i+1] + t*src[i+1]
		dst[i+2] = u*dst[i+2] + t*src[i+2]
		dst[i+3] = u*dst[i+3] + t*src[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = u*dst[i] + t*src[i]
	}
}

// WeightedSumInto writes dst = Σ_i weights[i]*vecs[i]. All vectors must have
// the same length as dst. It panics when vecs is empty or lengths mismatch.
func WeightedSumInto(dst []float64, weights []float64, vecs [][]float64) {
	if len(weights) != len(vecs) {
		panic("tensor: WeightedSumInto weights/vecs mismatch")
	}
	if len(vecs) == 0 {
		panic("tensor: WeightedSumInto with no vectors")
	}
	Zero(dst)
	for i, v := range vecs {
		if len(v) != len(dst) {
			panic("tensor: WeightedSumInto vector length mismatch")
		}
		Axpy(weights[i], v, dst)
	}
}

// Softmax writes the softmax of logits into out (out may alias logits).
func Softmax(logits, out []float64) {
	if len(logits) != len(out) {
		panic("tensor: Softmax length mismatch")
	}
	m, _ := maxOf(logits)
	sum := 0.0
	for i, v := range logits {
		e := Exp(v - m)
		out[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
}
