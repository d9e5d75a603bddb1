package tensor

import (
	"math"
	"testing"
)

func fillVec(seed uint64, n int) []float64 {
	v := make([]float64, n)
	s := seed
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = float64(int64(s>>11))/float64(1<<52) - 0.5
	}
	return v
}

// axpyNaive is the plain textbook loop every faster path must bit-match.
func axpyNaive(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// axpyRow runs Axpy and the naive loop over the same n-element x and y,
// cut from one base vector with y's offset minus x's offset equal to skew
// (0: y is x; ±n or more: disjoint), with the inject values written over
// the elements from seed mod n on, and requires every element of the base
// to match bit for bit — NaN payloads and signed zeros included.
func axpyRow(t *testing.T, seed uint64, n int, a float64, skew int, inject ...float64) {
	t.Helper()
	off := max(skew, -skew)
	base := fillVec(seed, n+off)
	for k, v := range inject {
		base[(seed+uint64(k))%uint64(n)] = v
	}
	ref := append([]float64(nil), base...)
	cut := func(v []float64) (x, y []float64) {
		if skew < 0 {
			return v[off : n+off], v[:n]
		}
		return v[:n], v[off : n+off]
	}
	xr, yr := cut(ref)
	axpyNaive(a, xr, yr)
	xb, yb := cut(base)
	Axpy(a, xb, yb)
	for i := range base {
		if math.Float64bits(ref[i]) != math.Float64bits(base[i]) {
			t.Fatalf("seed=%d n=%d a=%v skew=%d i=%d: Axpy %v (%#x), naive loop %v (%#x)",
				seed, n, a, skew, i, base[i], math.Float64bits(base[i]), ref[i], math.Float64bits(ref[i]))
		}
	}
}

// TestAxpyMatchesNaive pins Axpy to the plain textbook loop bit for bit
// across lengths (the 4-wide body and every tail), for the aliasing cases
// its contract covers — identical slices, and skewed overlaps in both
// directions, where the loop's write-then-read order is the semantics —
// and with Inf and NaN in the data or a zero scale meeting them.
func TestAxpyMatchesNaive(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 64, 100, 101, 1786} {
		axpyRow(t, uint64(n)+1, n, 0.73, n) // disjoint: y starts where x ends
	}
	axpyRow(t, 9, 33, -1.25, 0) // y is x
	for _, d := range []int{1, 2, 3} {
		axpyRow(t, uint64(d)+40, 40, 0.5, d)
		axpyRow(t, uint64(d)+80, 40, 0.5, -d)
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	axpyRow(t, 1, 10, 0.5, 0, 0)
	axpyRow(t, 2, 100, -1, 1, inf)
	axpyRow(t, 3, 7, 0, -2, nan)
	axpyRow(t, 4, 9, 0, 0, inf, -inf, negZero)
	axpyRow(t, 5, 6, inf, 0, negZero, 0, nan)
	axpyRow(t, 6, 13, negZero, 3, -inf, negZero, 5e-324)
}

func BenchmarkAxpy(b *testing.B) {
	x := fillVec(1, 100)
	y := fillVec(2, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Axpy(0.5, x, y)
	}
}
