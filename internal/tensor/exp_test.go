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

func TestExpHash(t *testing.T) {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range expInputs() {
		v := math.Float64bits(Exp(x))
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	if got := h.Sum64(); got != expHash {
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
