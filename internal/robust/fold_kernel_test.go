package robust

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// rowGuard is how many cells past the row's end each buffer carries; a
// kernel that writes there has overrun its row.
const rowGuard = 3

// guarded returns a row of n cells holding fill inside a buffer whose
// rowGuard trailing cells hold a sentinel, and the whole buffer to compare.
func guarded(n int, fill []float64) (row, buf []float64) {
	buf = make([]float64, n+rowGuard)
	for i := range buf {
		buf[i] = -7.5
	}
	copy(buf, fill)
	return buf[:n], buf
}

func sameBits(t *testing.T, what string, n int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s n=%d: cell %d = %v (%#x), Go twin %v (%#x)",
				what, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestFoldRowsMatchGo holds the tile kernel's two row operations — Gather
// and cmpExRows, assembly on amd64 — to their Go twins bit for bit, at
// every row length from 0 to two tiles and one past, so each length meets
// the eight-wide body and every tail. The rows are plantedCohort's: every
// foldSpecials value (NaN payloads, ±0, ±Inf, subnormals, the extremes)
// among duplicates. Cells past the row's end must come back untouched.
func TestFoldRowsMatchGo(t *testing.T) {
	g := rng.New(39)
	for n := 0; n <= 2*foldTile+1; n++ {
		src := plantedCohort(g, 2, n)

		got, gotBuf := guarded(n, nil)
		want, wantBuf := guarded(n, nil)
		Gather(got, src[0])
		loadRowGo(want, src[0])
		sameBits(t, "Gather", n, gotBuf, wantBuf)

		// The comparator's inputs obey the gather law, as they do in a fold.
		lo, hi := make([]float64, n), make([]float64, n)
		loadRowGo(lo, src[0])
		loadRowGo(hi, src[1])
		gotLo, gotLoBuf := guarded(n, lo)
		gotHi, gotHiBuf := guarded(n, hi)
		wantLo, wantLoBuf := guarded(n, lo)
		wantHi, wantHiBuf := guarded(n, hi)
		cmpExRows(gotLo, gotHi)
		cmpExRowsGo(wantLo, wantHi)
		sameBits(t, "cmpExRows lo", n, gotLoBuf, wantLoBuf)
		sameBits(t, "cmpExRows hi", n, gotHiBuf, wantHiBuf)
	}
}
