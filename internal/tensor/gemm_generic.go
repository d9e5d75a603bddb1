//go:build !amd64

package tensor

func gemmRows(dst, a, b *Mat, transA bool, lo, hi int) { gemmRowsGo(dst, a, b, transA, lo, hi) }
