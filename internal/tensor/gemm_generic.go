//go:build !amd64

package tensor

func gemmRows(dst, a, b *Mat, transA, acc bool, lo, hi int) {
	gemmRowsGo(dst, a, b, transA, acc, lo, hi)
}

func mulTransBRow(dst, a, b *Mat, i int, acc bool) { mulTransBRowGo(dst, a, b, i, acc) }
