package tensor

import "math"

// Exp returns e**x, bit-identical on every GOARCH and CPU.
//
// math.Exp's amd64 assembly takes one of two branches by CPU feature: the
// AVX+FMA branch fuses the argument reduction and the Taylor series, the
// other rounds each product. The two differ in the last bits, and
// elsewhere math.Exp is a third, pure-Go algorithm. Exp is a Go port of
// the FMA branch of $GOROOT/src/math/exp_amd64.s, built on math.FMA (exact
// on every GOARCH, in software where the CPU has no FMA), so on an FMA
// host it returns math.Exp's bits and everywhere else the same bits again.
// The explicit float64 conversions keep a compiler that fuses x*y+z from
// fusing the products the assembly rounds.
//
// The method is Naoki Shibata's ("Efficient evaluation methods of
// elementary functions suitable for SIMD computation", ISC'10), as the
// assembly implements it.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375 // upper half of ln 2
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	bits := math.Float64bits(x)
	switch {
	case bits&^(1<<63) >= 0x7FF0000000000000: // ±Inf or NaN
		if x < 0 {
			return 0
		}
		return x
	case x > overflow:
		return math.Inf(1)
	}
	// CVTSD2SL rounds to nearest even. Below −1075 the result underflows
	// to 0 whatever the series gives, which also keeps the int32 in range.
	r := math.RoundToEven(float64(log2e * x))
	if r < -1075 {
		return 0
	}
	e := int32(r)
	x = math.FMA(-ln2U, r, x)
	x = math.FMA(-ln2L, r, x)
	x = float64(x * 0.0625)
	p := 2.4801587301587301587e-5
	p = math.FMA(p, x, 1.9841269841269841270e-4)
	p = math.FMA(p, x, 1.3888888888888888889e-3)
	p = math.FMA(p, x, 8.3333333333333333333e-3)
	p = math.FMA(p, x, 4.1666666666666666667e-2)
	p = math.FMA(p, x, 1.6666666666666666667e-1)
	p = math.FMA(p, x, 0.5)
	p = math.FMA(p, x, 1.0)
	x = float64(x * p)
	// x ≈ e**(x/16) − 1 now; y ↦ y(y+2) = (1+y)² − 1, four times, undoes
	// the /16, and the last step adds the 1 back.
	for range 3 {
		x = float64(x * (x + 2))
	}
	x = math.FMA(x, x+2, 1)
	// Scale by 2**e; a subnormal result takes two steps, as the assembly's
	// denormal path does.
	bx := e + 0x3FF
	switch {
	case bx <= 0:
		if bx < -52 {
			return 0
		}
		x = float64(x * math.Float64frombits(uint64(bx+0x3FE)<<52))
		bx = 1
	case bx >= 0x7FF:
		return math.Inf(1)
	}
	return float64(x * math.Float64frombits(uint64(bx)<<52))
}
