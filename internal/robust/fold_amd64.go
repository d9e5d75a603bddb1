//go:build amd64

package robust

import "unsafe"

// foldLoadAsm copies src[0:n] to dst[0:n] under the gather law
// (fold_amd64.s): one ADDPD with +0 turns -0 into +0 and keeps every other
// value, one MINPD against +Inf — which returns its second operand when
// either is NaN — turns NaN into +Inf and keeps every other value.
//
//go:noescape
func foldLoadAsm(dst, src *float64, n int)

// foldCmpExAsm is one comparator over n coordinates (fold_amd64.s):
// lo[i], hi[i] = min(lo[i], hi[i]), max(lo[i], hi[i]) by MINPD/MAXPD. On
// rows without NaN or -0 those return one of their operands exactly, and
// operands that compare equal are identical.
//
//go:noescape
func foldCmpExAsm(lo, hi *float64, n int)

// Gather copies src into dst under the gather law (fold.go), the form
// Rows.Load writes; dst must hold len(src) values.
//
// The shims pass slice data pointers, not &x[0], so an empty row is a call
// that touches nothing rather than an index panic.
func Gather(dst, src []float64) {
	foldLoadAsm(unsafe.SliceData(dst), unsafe.SliceData(src), len(src))
}

func cmpExRows(lo, hi []float64) {
	foldCmpExAsm(unsafe.SliceData(lo), unsafe.SliceData(hi), len(lo))
}
