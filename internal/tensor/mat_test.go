package tensor

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/testutil"
)

func randMat(r *rng.RNG, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Norm()
	}
	return m
}

// naiveMul is the reference triple loop the optimized kernels are checked
// against.
func naiveMul(a, b *Mat) *Mat {
	dst := NewMat(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			s := 0.0
			for k := 0; k < a.C; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

// Mul returns a·b in a fresh matrix.
func Mul(a, b *Mat) *Mat {
	dst := NewMat(a.R, b.C)
	MulInto(dst, a, b)
	return dst
}

// T returns a newly allocated transpose of m.
func (m *Mat) T() *Mat {
	t := NewMat(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j, v := range m.Row(i) {
			t.Data[j*t.C+i] = v
		}
	}
	return t
}

// Equal reports whether a and b have identical shape and elements within tol.
func Equal(a, b *Mat, tol float64) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i, v := range a.Data {
		d := v - b.Data[i]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}

func TestMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 1, 9}, {33, 17, 29}} {
		a := randMat(r, dims[0], dims[1])
		b := randMat(r, dims[1], dims[2])
		got := Mul(a, b)
		want := naiveMul(a, b)
		if !Equal(got, want, 1e-10) {
			t.Fatalf("Mul mismatch for dims %v", dims)
		}
	}
}

func TestMulParallelPathMatchesNaive(t *testing.T) {
	r := rng.New(2)
	// Large enough to cross parallelRowThreshold.
	a := randMat(r, 200, 120)
	b := randMat(r, 120, 150)
	if !Equal(Mul(a, b), naiveMul(a, b), 1e-9) {
		t.Fatal("parallel Mul path diverges from naive")
	}
}

// TestGemmParallelPathAllocatesNothing: the three GEMMs at the wide MLP's
// 100×512 weight shape cross parallelRowThreshold and fan out through a
// pooled job with a prebuilt body, so a call allocates nothing.
func TestGemmParallelPathAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race instruments allocations; AllocsPerRun counts are meaningless")
	}
	r := rng.New(4)
	const m, k, n = 100, 32, 512
	dst := NewMat(m, n)
	x, xt, w, wt := randMat(r, m, k), randMat(r, k, m), randMat(r, k, n), randMat(r, n, k)
	for _, op := range []struct {
		name string
		call func()
	}{
		{"MulInto", func() { MulInto(dst, x, w) }},
		{"MulTransAInto", func() { MulTransAInto(dst, xt, w) }},
		{"MulTransBInto", func() { MulTransBInto(dst, x, wt) }},
	} {
		op.call() // warm the job pools
		if got := testing.AllocsPerRun(50, op.call); got != 0 {
			t.Errorf("%s %dx%d: %.1f allocations per call, want 0", op.name, m, n, got)
		}
	}
}

func TestMulIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + int(seed%8)
		a := randMat(r, n, n)
		id := NewMat(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		return Equal(Mul(a, id), a, 1e-12) && Equal(Mul(id, a), a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMulTransA(t *testing.T) {
	r := rng.New(3)
	a := randMat(r, 13, 7) // K×M
	b := randMat(r, 13, 5) // K×N
	dst := NewMat(7, 5)
	MulTransAInto(dst, a, b)
	want := naiveMul(a.T(), b)
	if !Equal(dst, want, 1e-10) {
		t.Fatal("MulTransAInto mismatch")
	}
}

func TestMulTransAParallelPath(t *testing.T) {
	r := rng.New(4)
	a := randMat(r, 64, 180)
	b := randMat(r, 64, 150)
	dst := NewMat(180, 150)
	MulTransAInto(dst, a, b)
	if !Equal(dst, naiveMul(a.T(), b), 1e-9) {
		t.Fatal("parallel MulTransAInto mismatch")
	}
}

func TestMulTransB(t *testing.T) {
	r := rng.New(5)
	a := randMat(r, 6, 11) // M×K
	b := randMat(r, 9, 11) // N×K
	dst := NewMat(6, 9)
	MulTransBInto(dst, a, b)
	want := naiveMul(a, b.T())
	if !Equal(dst, want, 1e-10) {
		t.Fatal("MulTransBInto mismatch")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := randMat(r, 1+int(seed%6), 1+int((seed>>8)%7))
		return Equal(m.T().T(), m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatFrom did not panic on length mismatch")
		}
	}()
	MatFrom(2, 3, make([]float64, 5))
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulInto did not panic on shape mismatch")
		}
	}()
	MulInto(NewMat(2, 2), NewMat(2, 3), NewMat(4, 2))
}

func TestAddRowVecAndColSums(t *testing.T) {
	m := MatFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	m.AddRowVec([]float64{10, 20, 30})
	if m.At(0, 0) != 11 || m.At(1, 2) != 36 {
		t.Fatalf("AddRowVec: %v", m.Data)
	}
	sums := make([]float64, 3)
	m.ColSumsInto(sums)
	if sums[0] != 25 || sums[1] != 47 || sums[2] != 69 {
		t.Fatalf("ColSumsInto: %v", sums)
	}
}

func TestRowIsView(t *testing.T) {
	m := NewMat(2, 2)
	m.Row(1)[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row is not a view")
	}
}

func BenchmarkMul64(b *testing.B)  { benchMul(b, 64) }
func BenchmarkMul256(b *testing.B) { benchMul(b, 256) }

func benchMul(b *testing.B, n int) {
	r := rng.New(1)
	a := randMat(r, n, n)
	c := randMat(r, n, n)
	dst := NewMat(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, a, c)
	}
}
