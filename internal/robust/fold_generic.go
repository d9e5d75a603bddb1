//go:build !amd64

package robust

func loadRow(dst, src []float64) { loadRowGo(dst, src) }

func cmpExRows(lo, hi []float64) { cmpExRowsGo(lo, hi) }
