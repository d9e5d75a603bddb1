package nn

import (
	"math"

	"repro/internal/codec"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// batchNorm normalizes each feature over the batch dimension with learned
// scale and shift, keeping running statistics for evaluation mode. The
// paper's Reddit model places one after the LSTM layer.
type batchNorm struct {
	dim      int
	eps      float64
	momentum float64 // running-stat update rate

	w, g []float64 // gamma (Dim), beta (Dim), runMean (Dim), runVar (Dim)

	// caches, grown by capacity: out is Forward's result, dx Backward's
	xhat, out, dx *tensor.Mat
	mean, inv     []float64
	usedBatch     bool // whether the last forward normalized with batch stats
}

// newBatchNorm constructs a batch-norm layer over dim features.
func newBatchNorm(dim int) *batchNorm {
	if dim <= 0 {
		panic("nn: BatchNorm dim must be positive")
	}
	return &batchNorm{dim: dim, eps: 1e-5, momentum: 0.1}
}

// ParamShapes implements layer. The running statistics ride along in the
// parameter vector so that federated aggregation averages them the same way
// TensorFlow's FL setups transmit BN statistics with the weights.
func (b *batchNorm) ParamShapes() []codec.ShapeInfo {
	return []codec.ShapeInfo{
		{Name: "gamma", Dims: []int{b.dim}},
		{Name: "beta", Dims: []int{b.dim}},
		{Name: "runMean", Dims: []int{b.dim}},
		{Name: "runVar", Dims: []int{b.dim}},
	}
}

// Bind implements layer.
func (b *batchNorm) Bind(w, g []float64) {
	checkBind(b, w, g)
	b.w, b.g = w, g
}

// Init implements layer.
func (b *batchNorm) Init(*rng.RNG) {
	d := b.dim
	tensor.Fill(b.w[:d], 1)      // gamma
	tensor.Zero(b.w[d : 2*d])    // beta
	tensor.Zero(b.w[2*d : 3*d])  // running mean
	tensor.Fill(b.w[3*d:4*d], 1) // running var
	tensor.Zero(b.g[2*d : 4*d])  // stats carry no gradient
}

// Forward implements layer.
func (b *batchNorm) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.C != b.dim {
		panic("nn: BatchNorm input width mismatch")
	}
	d := b.dim
	n := x.R
	gamma, beta := b.w[:d], b.w[d:2*d]
	runMean, runVar := b.w[2*d:3*d], b.w[3*d:4*d]
	b.xhat = tensor.EnsureMat(b.xhat, n, d)
	b.out = tensor.EnsureMat(b.out, n, d)
	if b.mean == nil {
		b.mean = make([]float64, d)
		b.inv = make([]float64, d)
	}
	b.usedBatch = train && n > 1
	if b.usedBatch {
		x.ColSumsInto(b.mean)
		tensor.Scale(1/float64(n), b.mean)
		for j := 0; j < d; j++ {
			v := 0.0
			for i := 0; i < n; i++ {
				diff := x.At(i, j) - b.mean[j]
				v += diff * diff
			}
			v /= float64(n)
			b.inv[j] = 1 / math.Sqrt(v+b.eps)
			runMean[j] = (1-b.momentum)*runMean[j] + b.momentum*b.mean[j]
			runVar[j] = (1-b.momentum)*runVar[j] + b.momentum*v
		}
	} else {
		copy(b.mean, runMean)
		for j := 0; j < d; j++ {
			b.inv[j] = 1 / math.Sqrt(runVar[j]+b.eps)
		}
	}
	for i := 0; i < n; i++ {
		xr := x.Row(i)
		xh := b.xhat.Row(i)
		for j := 0; j < d; j++ {
			xh[j] = (xr[j] - b.mean[j]) * b.inv[j]
		}
	}
	for i := 0; i < n; i++ {
		xh := b.xhat.Row(i)
		or := b.out.Row(i)
		for j := 0; j < d; j++ {
			or[j] = gamma[j]*xh[j] + beta[j]
		}
	}
	return b.out
}

// Backward implements layer (batch-statistics gradient).
func (b *batchNorm) Backward(dout *tensor.Mat) *tensor.Mat {
	d := b.dim
	n := dout.R
	gamma := b.w[:d]
	gGamma, gBeta := b.g[:d], b.g[d:2*d]
	b.dx = tensor.EnsureMat(b.dx, n, d)
	if !b.usedBatch {
		// Running statistics were constants in the forward pass, so the
		// input gradient is a plain per-feature scaling.
		for j := 0; j < d; j++ {
			for i := 0; i < n; i++ {
				dy := dout.At(i, j)
				gGamma[j] += dy * b.xhat.At(i, j)
				gBeta[j] += dy
				b.dx.Set(i, j, dy*gamma[j]*b.inv[j])
			}
		}
		return b.dx
	}
	for j := 0; j < d; j++ {
		sumDy, sumDyXhat := 0.0, 0.0
		for i := 0; i < n; i++ {
			dy := dout.At(i, j)
			sumDy += dy
			sumDyXhat += dy * b.xhat.At(i, j)
		}
		gGamma[j] += sumDyXhat
		gBeta[j] += sumDy
		scale := gamma[j] * b.inv[j] / float64(n)
		for i := 0; i < n; i++ {
			dy := dout.At(i, j)
			b.dx.Set(i, j, scale*(float64(n)*dy-sumDy-b.xhat.At(i, j)*sumDyXhat))
		}
	}
	return b.dx
}
