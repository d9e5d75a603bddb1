//go:build !amd64

package robust

// Gather copies src into dst under the gather law (fold.go), the form
// Rows.Load writes; dst must hold len(src) values.
func Gather(dst, src []float64) { loadRowGo(dst, src) }

func cmpExRows(lo, hi []float64) { cmpExRowsGo(lo, hi) }
