//go:build !amd64

package robust

import "math"

// loadRow copies src into dst under the gather law: -0 becomes +0 (v + 0)
// and NaN becomes +Inf.
func loadRow(dst, src []float64) {
	inf := math.Inf(1)
	dst = dst[:len(src)]
	for i, v := range src {
		v += 0
		if v != v {
			v = inf
		}
		dst[i] = v
	}
}

// cmpExRows leaves min(lo[i], hi[i]) in lo[i] and the max in hi[i]. The
// rows hold no NaN and no -0 (loadRow), so the builtins' special cases
// never fire and the pair of results is the pair of inputs, ordered.
func cmpExRows(lo, hi []float64) {
	hi = hi[:len(lo)]
	for i, a := range lo {
		b := hi[i]
		lo[i] = min(a, b)
		hi[i] = max(a, b)
	}
}
