package robust

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/rng"
)

// The reference coordinate folds: the per-coordinate gather + insertion
// sort loop that Median and TrimmedMean ran before the tile kernel, with the
// gather law spelled as a function. They define the folds; the tests and
// the fuzz target below hold the kernel to them bit for bit.

// canon is the gather law: -0 counts as +0 and NaN as +Inf.
func canon(v float64) float64 {
	v += 0 // -0 + +0 = +0 under round-to-nearest; every other value is kept
	if v != v {
		v = math.Inf(1)
	}
	return v
}

func refGather(col []float64, vecs [][]float64, j int) {
	for i, v := range vecs {
		col[i] = canon(v[j])
	}
	insertionSort(col)
}

func refMedian(dst []float64, vecs [][]float64) {
	k := len(vecs)
	col := make([]float64, k)
	for j := range dst {
		refGather(col, vecs, j)
		if k%2 == 1 {
			dst[j] = col[k/2]
		} else {
			dst[j] = (col[k/2-1] + col[k/2]) / 2
		}
	}
}

func refTrimmedMean(dst []float64, vecs [][]float64, beta float64) {
	k := len(vecs)
	if beta < 0 {
		beta = 0
	}
	t := int(beta * float64(k))
	if 2*t >= k {
		t = (k - 1) / 2
	}
	col := make([]float64, k)
	for j := range dst {
		refGather(col, vecs, j)
		sum := 0.0
		for i := t; i < k-t; i++ {
			sum += col[i]
		}
		dst[j] = sum / float64(k-2*t)
	}
}

// TestSortNetworkZeroOne is the proof that the generated networks sort: by
// the 0-1 principle a comparator network sorts every input iff it sorts
// every input of zeros and ones, and there are only 2^k of those. One bit
// per row: a comparator leaves the AND in lo and the OR in hi, and sorted
// means the ones fill the highest rows. Past k = 16 the inputs are random
// permutations instead.
func TestSortNetworkZeroOne(t *testing.T) {
	if net := sortNetwork(1); len(net) != 0 {
		t.Fatalf("a cohort of one needs no comparator, got %v", net)
	}
	for k := 2; k <= 16; k++ {
		net := sortNetwork(k)
		for _, c := range net {
			if c.lo < 0 || c.lo >= c.hi || c.hi >= k {
				t.Fatalf("k=%d: comparator %v outside 0 <= lo < hi < k", k, c)
			}
		}
		for in := uint(0); in < 1<<k; in++ {
			x := in
			for _, c := range net {
				lo, hi := x>>c.lo&1, x>>c.hi&1
				x = x&^(1<<c.lo|1<<c.hi) | (lo&hi)<<c.lo | (lo|hi)<<c.hi
			}
			ones := bits.OnesCount(in)
			if want := (uint(1)<<ones - 1) << (k - ones); x != want {
				t.Fatalf("k=%d: input %0*b came out %0*b", k, k, in, k, x)
			}
		}
	}
	g := rng.New(22)
	for _, k := range []int{17, 33, 100} {
		net := sortNetwork(k)
		a := make([]int, k)
		for trial := 0; trial < 10000; trial++ {
			for i := range a {
				a[i] = i
			}
			for i := k - 1; i > 0; i-- {
				j := g.Intn(i + 1)
				a[i], a[j] = a[j], a[i]
			}
			for _, c := range net {
				if a[c.lo] > a[c.hi] {
					a[c.lo], a[c.hi] = a[c.hi], a[c.lo]
				}
			}
			for i, v := range a {
				if v != i {
					t.Fatalf("k=%d trial %d: not sorted: %v", k, trial, a)
				}
			}
		}
	}
}

// foldSpecials are the values a comparator could mishandle: the unordered
// one (with both signs and other payloads, signalling ones included — the
// gather law must turn each into the same +Inf), both infinities, both
// zeros, the denormal range's ends and the extremes.
var foldSpecials = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000000),
	math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff00000deadbeef),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
	math.MaxFloat64, -math.MaxFloat64,
}

// plantedCohort draws k updates of normals quantised to 1/8 — so columns
// are full of duplicates — and overwrites about one value in eight with a
// special.
func plantedCohort(g *rng.RNG, k, dim int) [][]float64 {
	vecs := make([][]float64, k)
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		for j := range vecs[i] {
			vecs[i][j] = math.Round(g.Norm()*8) / 8
			if g.Intn(8) == 0 {
				vecs[i][j] = foldSpecials[g.Intn(len(foldSpecials))]
			}
		}
	}
	return vecs
}

// foldsMatchReference runs Median and TrimmedMean at every β over one
// cohort, through s into a dirty destination, and requires the oracle's
// bits.
func foldsMatchReference(t testing.TB, s *FoldScratch, vecs [][]float64, dim int, betas []float64) {
	t.Helper()
	got, want := make([]float64, dim), make([]float64, dim)
	check := func(name string) {
		t.Helper()
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				col := make([]float64, len(vecs))
				for i, v := range vecs {
					col[i] = v[j]
				}
				t.Fatalf("%s k=%d dim=%d: coordinate %d = %v (%#x), reference %v (%#x); column %v",
					name, len(vecs), dim, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]), col)
			}
		}
	}
	dirty := func() {
		for j := range got {
			got[j], want[j] = math.NaN(), math.Inf(-1)
		}
	}
	dirty()
	if err := s.Median(got, vecs); err != nil {
		t.Fatal(err)
	}
	refMedian(want, vecs)
	check("median")
	for _, beta := range betas {
		dirty()
		if err := s.TrimmedMean(got, vecs, beta); err != nil {
			t.Fatal(err)
		}
		refTrimmedMean(want, vecs, beta)
		check(fmt.Sprintf("trimmed(%v)", beta))
	}
}

// TestFoldMatchesReference: the tile kernel against the oracle over every
// cohort size up to 17 and one past 32, dimensions on both sides of every
// tile boundary, and one FoldScratch for the whole test — its rows are
// always dirty from the previous cohort, which is larger or smaller in
// turn.
func TestFoldMatchesReference(t *testing.T) {
	ks := []int{10, 1, 17, 2, 16, 3, 33, 4, 15, 5, 14, 6, 13, 7, 12, 8, 11, 9}
	dims := []int{0, 1, foldTile - 1, foldTile, foldTile + 1, 3*foldTile + 5, 56842}
	betas := []float64{0, 0.2, 0.49, 0.9}
	g := rng.New(1)
	var s FoldScratch
	for _, dim := range dims {
		for _, k := range ks {
			if dim == 56842 && testing.Short() && k != 10 && k != 33 {
				continue
			}
			foldsMatchReference(t, &s, plantedCohort(g, k, dim), dim, betas)
		}
	}
}

// FuzzFoldAgainstReference holds both folds to the oracle over (cohort
// size, dimension, β, raw float bits): the cohort's k·dim values are read
// off raw as 8-byte words, cycling, so the fuzzer owns every bit of every
// value — NaN payloads and signalling NaNs included.
func FuzzFoldAgainstReference(f *testing.F) {
	word := func(vs ...float64) []byte {
		var raw []byte
		for _, v := range vs {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		return raw
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	f.Add(uint8(10), uint16(300), 0.2, word(1, 2, 3, 4, 5, 6, 7))
	f.Add(uint8(7), uint16(5), 0.2, word(3.5))                                     // all-equal columns
	f.Add(uint8(5), uint16(3), 0.2, word(nan))                                     // all-NaN columns
	f.Add(uint8(4), uint16(1), 0.0, word(-1, negZero, 0, 1))                       // ±0 straddling the middle
	f.Add(uint8(6), uint16(1), 0.0, word(-2, negZero, negZero, 0, 0, 2))           // a run of ±0 across it
	f.Add(uint8(5), uint16(1), 0.2, word(negZero, negZero, 0, negZero, negZero))   // odd median picks a zero
	f.Add(uint8(4), uint16(1), 0.0, word(inf, -inf, 1, 2))                         // Inf − Inf in the trimmed window
	f.Add(uint8(4), uint16(1), 0.0, word(inf, 1, 2, inf))                          // Inf + Inf at the even middle
	f.Add(uint8(2), uint16(1), 0.9, word(inf, -inf))                               // Inf − Inf as the even median
	f.Add(uint8(10), uint16(4), 0.2, word(1, nan, 2, nan, 3, nan, 4))              // NaN at wandering positions
	f.Add(uint8(3), uint16(2), 0.49, word(5e-324, -5e-324, 0, negZero, 1e-310))    // denormals around zero
	f.Add(uint8(33), uint16(257), 0.2, word(9, 8, 7, 6, 5, 4, 3, 2, 1, 0, -1))     // past 32 rows, past one tile
	f.Add(uint8(1), uint16(2), 0.5, word(negZero, nan))                            // a cohort of one
	f.Add(uint8(17), uint16(256), 0.3, []byte{0xf8, 0xff, 0x01, 0x7f, 0x80, 0x00}) // ragged raw, odd bit patterns
	f.Fuzz(func(t *testing.T, k uint8, dim uint16, beta float64, raw []byte) {
		kk, d := max(1, int(k)%41), int(dim)%(2*foldTile+3)
		if len(raw) == 0 {
			raw = []byte{0}
		}
		vecs, pos := make([][]float64, kk), 0
		for i := range vecs {
			vecs[i] = make([]float64, d)
			for j := range vecs[i] {
				var w [8]byte
				for b := range w {
					w[b] = raw[pos%len(raw)]
					pos++
				}
				vecs[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
			}
		}
		var s FoldScratch
		foldsMatchReference(t, &s, vecs, d, []float64{beta})
	})
}

// benchCohort is k updates of dim normals quantised to 1e-4, the value
// distribution the polyline codec hands the fold at its default precision.
func benchCohort(k, dim int) [][]float64 {
	g := rng.New(uint64(k*dim + 1))
	vecs := make([][]float64, k)
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		for j := range vecs[i] {
			vecs[i][j] = math.Round(g.Norm()*1e4) / 1e4
		}
	}
	return vecs
}

// benchFold runs median and trimmed(0.2) at the benchmark workloads' fold
// shapes: ten updates of MLP-512 (56,842 weights) and of the tiny MLP
// (3,562), and a four-update buffer of the latter.
func benchFold(b *testing.B, median func(dst []float64, vecs [][]float64), trimmed func(dst []float64, vecs [][]float64)) {
	for _, fold := range []struct {
		name string
		run  func(dst []float64, vecs [][]float64)
	}{{"median", median}, {"trimmed", trimmed}} {
		for _, shape := range [][2]int{{10, 56842}, {10, 3562}, {4, 3562}} {
			vecs, dst := benchCohort(shape[0], shape[1]), make([]float64, shape[1])
			b.Run(fmt.Sprintf("%s/%dx%d", fold.name, shape[0], shape[1]), func(b *testing.B) {
				fold.run(dst, vecs)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fold.run(dst, vecs)
				}
			})
		}
	}
}

func BenchmarkFold(b *testing.B) {
	var s FoldScratch
	benchFold(b,
		func(dst []float64, vecs [][]float64) { _ = s.Median(dst, vecs) },
		func(dst []float64, vecs [][]float64) { _ = s.TrimmedMean(dst, vecs, 0.2) })
}

// BenchmarkFoldReference is the same-process denominator: the loop the
// kernel replaced. It allocates its gather column per call (one small
// allocation), which the kernel's rows in BenchmarkFold must not.
func BenchmarkFoldReference(b *testing.B) {
	benchFold(b, refMedian,
		func(dst []float64, vecs [][]float64) { refTrimmedMean(dst, vecs, 0.2) })
}
