package tensor

import (
	"hash/fnv"
	"math"
	"testing"
)

// expHash is the FNV-1a hash of Exp's bits over expInputs. It is the same
// natively, under GODEBUG=cpu.fma=off and under GOARCH=386; math.Exp's is
// not, which is why the repo owns its exponential.
const expHash uint64 = 0xb5fac23c163ce44a

// expInputs is a fixed, platform-independent input set: SplitMix64 draws
// spread over the whole finite domain Exp computes ([−750, 750]), over
// the subnormal results ([−746, −708]) and near zero ([−1e−3, 1e−3]).
func expInputs() []float64 {
	var s uint64
	next := func() float64 { // uniform in [0, 1)
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return float64((z^z>>31)>>11) * 0x1p-53
	}
	xs := make([]float64, 0, 3<<18)
	for range 1 << 18 {
		xs = append(xs, float64(next()*1500)-750, -708-float64(next()*38), float64(next()*2e-3)-1e-3)
	}
	return xs
}

// hashOver is the FNV-1a hash of f's bits over expInputs.
func hashOver(f func(float64) float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range expInputs() {
		v := math.Float64bits(f(x))
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestExpHash(t *testing.T) {
	if got := hashOver(Exp); got != expHash {
		t.Errorf("hash of Exp over the fixed inputs = %#x, want %#x", got, expHash)
	}
}

func TestExpEdges(t *testing.T) {
	for _, c := range []struct{ x, want float64 }{
		{0, 1},
		{math.Copysign(0, -1), 1},
		{1, math.E},
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 0},
		// The largest finite result: past it the exponent reaches 1024 and
		// the scaling step overflows, short of math.MaxFloat64 as in the
		// assembly.
		{709.4361393031039, 1.2711610061535065e+308},
		{math.Nextafter(709.4361393031039, 710), math.Inf(1)},
		{709.782712893384, math.Inf(1)}, // the assembly's overflow threshold
		{math.MaxFloat64, math.Inf(1)},
		{-708.3964185322641, 2.2250738585072626e-308}, // the smallest normal result
		{-745.1332191019411, 5e-324},                  // the smallest subnormal
		{-745.1332191019412, 0},
		{-1e300, 0},
		{-math.MaxFloat64, 0},
	} {
		if got := Exp(c.x); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("Exp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := Exp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Exp(NaN) = %v, want NaN", got)
	}
}

// TestTanhPowHash pins Tanh and fractional Pow the way TestExpHash pins
// Exp: each hash is the same natively, under GODEBUG=cpu.fma=off and under
// GOARCH=386, and natively on an FMA host it is also math.Tanh's and
// math.Pow's. The inputs cover both branches of Tanh, the exponent the lazy
// population's heavy tail draws with, and a staleness weight (s+1)**-α.
func TestTanhPowHash(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func(float64) float64
		want uint64
	}{
		{"Tanh(x/100)", func(x float64) float64 { return Tanh(x / 100) }, 0xf9ceeb5de1cd4e0e},
		{"Pow(|x|/100, 0.6)", func(x float64) float64 { return Pow(math.Abs(x)/100, 0.6) }, 0xb5704e27357d7111},
		{"Pow(|x|/10+1, -1.3)", func(x float64) float64 { return Pow(math.Abs(x)/10+1, -1.3) }, 0x9a1d80c0f098fed9},
	} {
		if got := hashOver(c.f); got != c.want {
			t.Errorf("hash of %s over the fixed inputs = %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestTanhPowSpecialCases checks the cases the ports answer without Exp,
// where they must return math.Tanh's and math.Pow's bits on every host:
// Tanh's zero, rational and saturated ranges, and Pow's special values and
// integer exponents (a fractional exponent of a negative base is NaN).
func TestTanhPowSpecialCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 0.3, -0.3, 45, -45, inf, -inf, nan} {
		if got, want := Tanh(x), math.Tanh(x); !same(got, want) {
			t.Errorf("Tanh(%v) = %v, want %v", x, got, want)
		}
	}
	special := []float64{0, math.Copysign(0, -1), 1, -1, inf, -inf, nan}
	whole := []float64{0, 1, -1, 0.5, -0.5, 2, 3, -3, 1 << 63, inf, -inf, nan}
	check := func(xs, ys []float64) {
		for _, x := range xs {
			for _, y := range ys {
				if got, want := Pow(x, y), math.Pow(x, y); !same(got, want) {
					t.Errorf("Pow(%v, %v) = %v, want %v", x, y, got, want)
				}
			}
		}
	}
	check(special, append([]float64{0.6, -1.3}, whole...))
	check([]float64{2, -2, 0.5, 1e300}, whole)
	check([]float64{-2, -0.5}, []float64{0.6, -1.3})
}
