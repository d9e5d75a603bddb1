//go:build amd64

package robust

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

func loadRow(dst, src []float64) {
	foldLoadAsm(&dst[0], &src[0], len(src))
}

func cmpExRows(lo, hi []float64) {
	foldCmpExAsm(&lo[0], &hi[0], len(lo))
}
