//go:build amd64

package tensor

// axpyAsm is the SSE2 two-wide y += a*x in vec_amd64.s. Each lane performs
// the scalar loop's exact mul-then-add on its own element, so results are
// bit-identical to axpyGo for disjoint (or perfectly identical) x and y.
//
//go:noescape
func axpyAsm(a float64, x, y *float64, n int)

// axpyKernel dispatches to the packed kernel unless x and y PARTIALLY
// overlap. The scalar loop writes y[i] before reading x[i+1], so with a
// skewed overlap later reads see earlier writes; the packed kernel loads
// a pair before storing and would diverge. Perfect aliasing (same base) is
// safe — each element still only depends on itself.
func axpyKernel(a float64, x, y []float64) {
	if &x[0] != &y[0] && overlaps(x, y) {
		axpyGo(a, x, y)
		return
	}
	axpyAsm(a, &x[0], &y[0], len(x))
}
