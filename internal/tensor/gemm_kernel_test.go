package tensor

import (
	"fmt"
	"math"
	"testing"
)

// gemmCase is one GEMM input: a is m×kn (kn×m when transA), b is kn×n, and
// dst arrives dirty. zeroEighths of a's elements (by index hash) are zero,
// alternating +0 and -0, which is what the kernel's skip rule is about.
type gemmCase struct {
	a, b   *Mat
	m, n   int
	transA bool
}

func newGemmCase(seed uint64, m, kn, n int, transA bool, zeroEighths int) gemmCase {
	ar, ac := m, kn
	if transA {
		ar, ac = kn, m
	}
	c := gemmCase{a: MatFrom(ar, ac, fillVec(seed, ar*ac)), b: MatFrom(kn, n, fillVec(seed^0xb, kn*n)), m: m, n: n, transA: transA}
	for i := range c.a.Data {
		h := (uint64(i) + seed) * 0x9e3779b97f4a7c15 >> 40
		if int(h%8) < zeroEighths {
			c.a.Data[i] = 0
			if h&8 != 0 {
				c.a.Data[i] = math.Copysign(0, -1)
			}
		}
	}
	return c
}

// check runs the exported operation (row kernel on amd64) and the retained
// Go loop into separately dirtied outputs, demands identical bits and
// returns the result.
func (c gemmCase) check(t testing.TB, ctx string) *Mat {
	t.Helper()
	got, want := NewMat(c.m, c.n), NewMat(c.m, c.n)
	Fill(got.Data, math.NaN())
	Fill(want.Data, math.Inf(-1))
	if c.transA {
		MulTransAInto(got, c.a, c.b)
	} else {
		MulInto(got, c.a, c.b)
	}
	gemmRowsGo(want, c.a, c.b, c.transA, 0, c.m)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s transA=%v: dst[%d] = %x, reference %x", ctx, c.transA, i,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
	return got
}

// TestGemmMatchesReference pins MulInto and MulTransAInto to the retained
// Go loop bit for bit: every tile width and remainder (n = 0…40), K on both
// sides of the compaction chunk, the strided a walk of MulTransAInto, dense
// and half-zero a, signed zeros, NaN and Inf operands, dirty outputs, and
// shapes above parallelRowThreshold.
func TestGemmMatchesReference(t *testing.T) {
	for _, transA := range []bool{false, true} {
		for n := 0; n <= 40; n++ {
			for _, kn := range []int{0, 1, 2, 63, 64, 65, 128, 129, 200} {
				for _, zeros := range []int{0, 4, 8} {
					c := newGemmCase(uint64(n*1000+kn), 3, kn, n, transA, zeros)
					c.check(t, fmt.Sprintf("n=%d K=%d zeros=%d/8", n, kn, zeros))
				}
			}
		}
		// The conv and dense shapes of the benchmark's models, and two that
		// cross parallelRowThreshold (MulTransAInto needs dst.R >= 4 too).
		for _, d := range [][3]int{{16, 144, 100}, {144, 16, 100}, {100, 32, 512}, {130, 70, 130}, {512, 32, 100}} {
			c := newGemmCase(uint64(d[0]), d[0], d[1], d[2], transA, 4)
			c.check(t, fmt.Sprintf("shape %v", d))
		}
	}

	// The skip rule, value by value. One output row, so b's row k meets
	// a[k] alone: a zero of either sign must hide an Inf/NaN row of b, a
	// NaN in a must not be mistaken for zero, and an Inf times a finite b
	// must come through.
	for _, transA := range []bool{false, true} {
		c := newGemmCase(7, 1, 70, 19, transA, 0)
		for k := 0; k < 70; k += 2 {
			c.a.Data[k] = math.Copysign(0, float64(k%4)-1)
			Fill(c.b.Row(k), []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[k/2%3])
		}
		for j, v := range c.check(t, "poisoned b under zero a").Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("transA=%v: out[%d] = %v: a zero a did not skip its b row", transA, j, v)
			}
		}
		c.a.Data[3] = math.NaN()
		c.check(t, "NaN in a")
		c.a.Data[3], c.a.Data[5] = math.Inf(1), math.Inf(-1)
		c.check(t, "Inf in a")
	}
}

// FuzzGemmRow drives both operations against the retained Go loop on
// fuzzer-chosen shapes, zero densities and injected special values; the two
// must agree bit for bit, NaN payloads and signed zeros included.
func FuzzGemmRow(f *testing.F) {
	f.Add(uint64(1), 3, 65, 35, false, 4, 0.0, 1.0)
	f.Add(uint64(2), 2, 64, 16, true, 0, math.NaN(), math.Inf(1))
	f.Add(uint64(3), 1, 129, 7, false, 8, math.Copysign(0, -1), math.NaN())
	f.Add(uint64(4), 16, 144, 100, false, 0, 1e300, 1e300)
	f.Add(uint64(5), 144, 16, 100, true, 4, math.Inf(-1), -1e-310)
	f.Add(uint64(6), 130, 3, 130, true, 7, 5e-324, 0.0)
	f.Add(uint64(7), 4, 0, 9, false, 0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, seed uint64, m, kn, n int, transA bool, zeroEighths int, injectA, injectB float64) {
		if m < 1 || m > 160 || kn < 0 || kn > 300 || n < 0 || n > 160 || zeroEighths < 0 || zeroEighths > 8 {
			t.Skip()
		}
		c := newGemmCase(seed, m, kn, n, transA, zeroEighths)
		if len(c.a.Data) > 0 {
			c.a.Data[seed%uint64(len(c.a.Data))] = injectA
		}
		if len(c.b.Data) > 0 {
			c.b.Data[(seed>>8)%uint64(len(c.b.Data))] = injectB
		}
		c.check(t, fmt.Sprintf("seed=%d m=%d K=%d n=%d zeros=%d/8 a<-%v b<-%v", seed, m, kn, n, zeroEighths, injectA, injectB))
	})
}

// TestMulAliasPanics: a dst that shares storage with an operand — the same
// slice or a skewed view of it — is refused by all three GEMMs, and
// disjoint views of one backing array are not.
func TestMulAliasPanics(t *testing.T) {
	buf := fillVec(1, 48)
	sq := func(off int) *Mat { return MatFrom(4, 4, buf[off:off+16]) }
	ops := map[string]func(dst, a, b *Mat){"MulInto": MulInto, "MulTransAInto": MulTransAInto, "MulTransBInto": MulTransBInto}
	for name, op := range ops {
		for _, c := range []struct {
			what      string
			dst, a, b *Mat
			panics    bool
		}{
			{"dst is a", sq(0), sq(0), sq(16), true},
			{"dst is b", sq(16), sq(0), sq(16), true},
			{"dst overlaps a's tail", sq(15), sq(0), sq(32), true},
			{"dst overlaps b's head", sq(10), sq(32), sq(25), true},
			{"adjacent views", sq(16), sq(0), sq(32), false},
			{"a is b", sq(32), sq(0), sq(0), false},
		} {
			func() {
				defer func() {
					if r := recover(); (r != nil) != c.panics {
						t.Errorf("%s, %s: panic = %v, want panic %v", name, c.what, r, c.panics)
					}
				}()
				op(c.dst, c.a, c.b)
			}()
		}
	}
}

// gemmBenches are the shapes local training spends its time in: the third
// convolution's forward product, the dense layer's weight gradient with a
// ReLU-masked (half-zero) dout, a small MLP forward-style product, and the
// 256-cube that BenchmarkMul256 has always timed.
var gemmBenches = []struct {
	name      string
	m, kn, n  int
	transA    bool
	zeroEight int
}{
	{"conv16x144x100", 16, 144, 100, false, 0},
	{"transA32x512x100-halfzero", 512, 32, 100, true, 4},
	{"mlp10x32x100", 10, 32, 100, false, 0},
	{"mul256", 256, 256, 256, false, 0},
}

func benchGemm(b *testing.B, kernel func(dst *Mat, c gemmCase)) {
	for _, s := range gemmBenches {
		b.Run(s.name, func(b *testing.B) {
			c := newGemmCase(1, s.m, s.kn, s.n, s.transA, s.zeroEight)
			dst := NewMat(s.m, s.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(dst, c)
			}
		})
	}
}

// BenchmarkGemm times the row kernel; BenchmarkGemmReference is the
// retained Go loop (an Axpy per (i,k), as every GEMM ran before the kernel)
// in the same process — the denominator of the speed-up. Both run the
// serial row loop, so the ratio is the kernel's and not the scheduler's.
func BenchmarkGemm(b *testing.B) {
	benchGemm(b, func(dst *Mat, c gemmCase) { gemmRows(dst, c.a, c.b, c.transA, 0, c.m) })
}

func BenchmarkGemmReference(b *testing.B) {
	benchGemm(b, func(dst *Mat, c gemmCase) { gemmRowsGo(dst, c.a, c.b, c.transA, 0, c.m) })
}

// BenchmarkGemmParallel times the three GEMMs through their public entry
// points at the wide MLP's 100×512 weight shape (a batch of 32), which
// crosses parallelRowThreshold: the row kernel plus the fan-out to the
// parallel helpers, whose pooled job keeps allocs/op at 0.
func BenchmarkGemmParallel(b *testing.B) {
	const m, k, n = 100, 32, 512
	mat := func(seed uint64, r, c int) *Mat { return MatFrom(r, c, fillVec(seed, r*c)) }
	x, xt, w, wt := mat(1, m, k), mat(2, k, m), mat(3, k, n), mat(4, n, k)
	dst := NewMat(m, n)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"mul100x32x512", func() { MulInto(dst, x, w) }},
		{"transA100x32x512", func() { MulTransAInto(dst, xt, w) }},
		{"transB100x32x512", func() { MulTransBInto(dst, x, wt) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.call()
			}
		})
	}
}
