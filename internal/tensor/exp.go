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

// Tanh returns the hyperbolic tangent of x, bit-identical on every GOARCH
// and CPU. It is a port of math.Tanh's Go body ($GOROOT/src/math/tanh.go,
// the Cephes algorithm) with Exp in place of math.Exp, which is what made
// math.Tanh follow the CPU's FMA branch; on an FMA host it returns
// math.Tanh's bits. The explicit float64 conversions keep a compiler that
// fuses x*y+z from fusing the rational approximation's products.
func Tanh(x float64) float64 {
	const maxLog = 8.8029691931113054295988e+01 // log(2**127)
	z := math.Abs(x)
	switch {
	case z > 0.5*maxLog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		s := Exp(2 * z)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := x * x
		p := float64(float64(float64(tanhP[0]*s)+tanhP[1])*s) + tanhP[2]
		q := float64(float64(float64((s+tanhQ[0])*s)+tanhQ[1])*s) + tanhQ[2]
		z = x + float64(x*s)*p/q
	}
	return z
}

var (
	tanhP = [...]float64{
		-9.64399179425052238628e-1,
		-9.92877231001918586564e1,
		-1.61468768441708447952e3,
	}
	tanhQ = [...]float64{
		1.12811678491632931402e2,
		2.23548839060100448583e3,
		4.84406305325125486048e3,
	}
)

// Pow returns x**y, bit-identical on every GOARCH and CPU. It is a port of
// math.Pow's Go body ($GOROOT/src/math/pow.go) with Exp in place of
// math.Exp, which a fractional exponent reaches through Exp(yf*Log(x)); on
// an FMA host it returns math.Pow's bits. Special cases are math.Pow's.
func Pow(x, y float64) float64 {
	switch {
	case y == 0 || x == 1:
		return 1
	case y == 1:
		return x
	case math.IsNaN(x) || math.IsNaN(y):
		return math.NaN()
	case x == 0:
		switch {
		case y < 0:
			if math.Signbit(x) && isOddInt(y) {
				return math.Inf(-1)
			}
			return math.Inf(1)
		case y > 0:
			if math.Signbit(x) && isOddInt(y) {
				return x
			}
			return 0
		}
	case math.IsInf(y, 0):
		switch {
		case x == -1:
			return 1
		case (math.Abs(x) < 1) == math.IsInf(y, 1):
			return 0
		default:
			return math.Inf(1)
		}
	case math.IsInf(x, 0):
		if math.IsInf(x, -1) {
			return Pow(1/x, -y) // Pow(-0, -y)
		}
		switch {
		case y < 0:
			return 0
		case y > 0:
			return math.Inf(1)
		}
	case y == 0.5:
		return math.Sqrt(x)
	case y == -0.5:
		return 1 / math.Sqrt(x)
	}

	yi, yf := math.Modf(math.Abs(y))
	if yf != 0 && x < 0 {
		return math.NaN()
	}
	if yi >= 1<<63 {
		// yi is a large even int that will lead to overflow (or underflow
		// to 0) for all x except -1 (x == 1 was handled earlier).
		switch {
		case x == -1:
			return 1
		case (math.Abs(x) < 1) == (y > 0):
			return 0
		default:
			return math.Inf(1)
		}
	}

	// ans = a1 * 2**ae (= 1 for now).
	a1 := 1.0
	ae := 0

	// ans *= x**yf
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = Exp(yf * math.Log(x))
	}

	// ans *= x**yi by multiplying in successive squarings of x according
	// to the bits of yi, accumulating powers of two into ae.
	x1, xe := math.Frexp(x)
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// Catch xe before it overflows the left shift below: the
			// final Ldexp under- or overflows anyway.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}

	// ans = a1*2**ae; if y < 0 { ans = 1 / ans }, in the opposite order.
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}

// isOddInt reports whether x is an odd integer.
func isOddInt(x float64) bool {
	if math.Abs(x) >= 1<<53 {
		// Past 2**53 every float64 is an even integer (and int64(xi)
		// below could overflow).
		return false
	}
	xi, xf := math.Modf(x)
	return xf == 0 && int64(xi)&1 == 1
}
