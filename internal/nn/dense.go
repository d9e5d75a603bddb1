package nn

import (
	"repro/internal/codec"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// dense is a fully connected layer: y = x·Wᵀ + b with W stored Out×In.
type dense struct {
	inDim, outDim int

	w, g []float64 // bound storage: W (Out*In) then b (Out)

	// wMat/gwMat are view headers onto w/g, set once in Bind so the hot
	// loops never re-wrap the slices (MatFrom per batch step was the single
	// largest allocation-count source in the training profile).
	wMat, gwMat tensor.Mat

	// caches
	x   *tensor.Mat // input of last training forward
	out *tensor.Mat
	dx  *tensor.Mat

	skipInputGrad bool // set when this is a network's first layer
}

// SkipInputGrad implements inputGradSkipper: when this layer heads a
// network, its dx (the gradient w.r.t. the data batch) is never consumed,
// so Backward skips the dout·W matmul and returns nil.
func (d *dense) SkipInputGrad() { d.skipInputGrad = true }

// newDense constructs a dense layer with the given fan-in and fan-out.
func newDense(in, out int) *dense {
	if in <= 0 || out <= 0 {
		panic("nn: Dense dimensions must be positive")
	}
	return &dense{inDim: in, outDim: out}
}

// ParamShapes implements layer.
func (d *dense) ParamShapes() []codec.ShapeInfo {
	return []codec.ShapeInfo{{Name: "W", Dims: []int{d.outDim, d.inDim}}, {Name: "b", Dims: []int{d.outDim}}}
}

// Bind implements layer.
func (d *dense) Bind(w, g []float64) {
	checkBind(d, w, g)
	d.w, d.g = w, g
	d.wMat.View(d.outDim, d.inDim, w[:d.outDim*d.inDim])
	d.gwMat.View(d.outDim, d.inDim, g[:d.outDim*d.inDim])
}

// Init implements layer (Glorot uniform weights, zero bias).
func (d *dense) Init(r *rng.RNG) {
	initUniform(r, d.w[:d.outDim*d.inDim], glorot(d.inDim, d.outDim))
	tensor.Zero(d.w[d.outDim*d.inDim:])
}

func (d *dense) weight() *tensor.Mat { return &d.wMat }
func (d *dense) bias() []float64     { return d.w[d.outDim*d.inDim:] }
func (d *dense) gradW() *tensor.Mat  { return &d.gwMat }
func (d *dense) gradB() []float64    { return d.g[d.outDim*d.inDim:] }

// Forward implements layer.
func (d *dense) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.C != d.inDim {
		panic("nn: Dense input width mismatch")
	}
	// Capacity-based reuse: MulTransBInto writes every element, so dirty
	// storage from a differently-shaped batch is fine.
	d.out = tensor.EnsureMat(d.out, x.R, d.outDim)
	tensor.MulTransBInto(d.out, x, d.weight())
	d.out.AddRowVec(d.bias())
	if train {
		d.x = x
	}
	return d.out
}

// Backward implements layer.
func (d *dense) Backward(dout *tensor.Mat) *tensor.Mat {
	if d.x == nil {
		panic("nn: Dense Backward before training Forward")
	}
	// dW += doutᵀ·x as one chain from g: each element's batch terms are
	// added onto g in row order, not summed into a scratch that is then
	// added once. After ZeroGrad, which TrainLocal runs before every
	// Backprop, the two agree bit for bit: g is +0, and a chain that starts
	// at +0 never yields −0, so +0 plus the scratch's sum is that sum. A
	// second Backprop onto a non-zero g rounds once per term instead.
	tensor.AddMulTransA(d.gradW(), dout, d.x)
	// db += column sums of dout
	gb := d.gradB()
	for i := 0; i < dout.R; i++ {
		tensor.AddTo(gb, dout.Row(i))
	}
	if d.skipInputGrad {
		return nil
	}
	// dx = dout·W
	d.dx = tensor.EnsureMat(d.dx, dout.R, d.inDim)
	tensor.MulInto(d.dx, dout, d.weight())
	return d.dx
}
