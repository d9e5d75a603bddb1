package nn

import (
	"math"

	"repro/internal/codec"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// relu applies max(0, x) element-wise.
type relu struct {
	out, dx *tensor.Mat
	// mask holds all-ones where the forward input was positive and zero
	// elsewhere, so both passes gate values with a single AND instead of a
	// data-dependent branch (activation signs are effectively random, so
	// the branch mispredicts half the time). ANDing bits is bit-exact:
	// kept values pass through untouched and masked ones become +0 — the
	// same literal 0 the branchy form stored.
	mask []uint64
}

// newReLU constructs a ReLU activation.
func newReLU() *relu { return &relu{} }

// ParamShapes implements layer.
func (l *relu) ParamShapes() []codec.ShapeInfo { return nil }

// Bind implements layer.
func (l *relu) Bind(w, g []float64) { checkBind(l, w, g) }

// Init implements layer.
func (l *relu) Init(*rng.RNG) {}

// OutDim implements layer.
func (l *relu) OutDim(in int) int { return in }

// Forward implements layer.
func (l *relu) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	n := len(x.Data)
	l.out = tensor.EnsureMat(l.out, x.R, x.C)
	if cap(l.mask) >= n {
		l.mask = l.mask[:n]
	} else {
		l.mask = make([]uint64, n)
	}
	mask := l.mask
	out := l.out.Data[:n]
	for i, v := range x.Data {
		m := uint64(0)
		if v > 0 {
			m = ^uint64(0)
		}
		mask[i] = m
		out[i] = math.Float64frombits(math.Float64bits(v) & m)
	}
	return l.out
}

// Backward implements layer.
func (l *relu) Backward(dout *tensor.Mat) *tensor.Mat {
	l.dx = tensor.EnsureMat(l.dx, dout.R, dout.C)
	mask := l.mask[:len(dout.Data)]
	dx := l.dx.Data[:len(dout.Data)]
	for i, v := range dout.Data {
		dx[i] = math.Float64frombits(math.Float64bits(v) & mask[i])
	}
	return l.dx
}

// dropout randomly zeroes activations during training with probability Rate
// and rescales survivors by 1/(1-Rate) (inverted dropout), matching the
// dropout used inside the paper's Reddit LSTM model.
type dropout struct {
	Rate float64

	r       rng.RNG
	out, dx *tensor.Mat
	mask    []float64
}

// newDropout constructs a dropout layer; rate must be in [0, 1).
func newDropout(rate float64) *dropout {
	if rate < 0 || rate >= 1 {
		panic("nn: Dropout rate must be in [0,1)")
	}
	return &dropout{Rate: rate}
}

// ParamShapes implements layer.
func (l *dropout) ParamShapes() []codec.ShapeInfo { return nil }

// Bind implements layer.
func (l *dropout) Bind(w, g []float64) { checkBind(l, w, g) }

// Init implements layer; it seeds the layer's private mask stream.
func (l *dropout) Init(r *rng.RNG) { l.r = *r.Split() }

// Reseed restarts the mask stream. The stream is the one piece of layer
// state SetWeights cannot overwrite, so whoever needs a replica's training
// pass to be a function of its inputs alone reseeds it first
// (Network.Reseed).
func (l *dropout) Reseed(r rng.RNG) { l.r = r }

// OutDim implements layer.
func (l *dropout) OutDim(in int) int { return in }

// Forward implements layer.
func (l *dropout) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if !train || l.Rate == 0 {
		return x
	}
	n := len(x.Data)
	l.out = tensor.EnsureMat(l.out, x.R, x.C)
	if cap(l.mask) >= n {
		l.mask = l.mask[:n]
	} else {
		l.mask = make([]float64, n)
	}
	keep := 1 - l.Rate
	inv := 1 / keep
	for i, v := range x.Data {
		if l.r.Float64() < keep {
			l.mask[i] = inv
			l.out.Data[i] = v * inv
		} else {
			l.mask[i] = 0
			l.out.Data[i] = 0
		}
	}
	return l.out
}

// Backward implements layer.
func (l *dropout) Backward(dout *tensor.Mat) *tensor.Mat {
	if l.mask == nil { // eval-mode forward: identity
		return dout
	}
	l.dx = tensor.EnsureMat(l.dx, dout.R, dout.C)
	for i, v := range dout.Data {
		l.dx.Data[i] = v * l.mask[i]
	}
	return l.dx
}
