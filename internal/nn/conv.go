package nn

import (
	"repro/internal/codec"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// conv2D is a 2-D convolution over channel-major (CHW) images flattened one
// per batch row. The convolution is computed per sample via im2col followed
// by a single matrix multiply, the standard lowering.
type conv2D struct {
	InC, H, W        int // input geometry
	OutC, K          int // filters and (square) kernel size
	Stride, Pad      int
	outH, outW, cols int

	w, g []float64 // W (OutC × InC*K*K) then b (OutC)

	// wMat/gwMat are view headers onto w/g, set once in Bind; outView and
	// doutView are retargeted per sample with Mat.View, so neither forward
	// nor backward wraps a new header per sample per step.
	wMat, gwMat       tensor.Mat
	outView, doutView tensor.Mat

	// caches (owned by a single goroutine). colsBuf is the one cols × p
	// im2col scratch: Forward lowers each sample into it, and Backward
	// lowers sample s again from x before dW, then reuses it for dcols.
	// Im2Col is a pure copy, so the rebuilt columns are the forward's bits,
	// and the scratch does not grow with the batch or a test split.
	x       *tensor.Mat
	out, dx *tensor.Mat
	colsBuf *tensor.Mat

	skipInputGrad bool // set when this is a network's first layer
}

// SkipInputGrad implements inputGradSkipper: when this layer heads a
// network, its dx (the gradient w.r.t. the data batch) is never consumed,
// so Backward skips the Wᵀ·dout matmul and col2im scatter and returns nil.
func (c *conv2D) SkipInputGrad() { c.skipInputGrad = true }

// newConv2D constructs a convolution layer for inC×h×w inputs with outC
// k×k filters.
func newConv2D(inC, h, w, outC, k, stride, pad int) *conv2D {
	if inC <= 0 || h <= 0 || w <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		panic("nn: Conv2D invalid geometry")
	}
	c := &conv2D{InC: inC, H: h, W: w, OutC: outC, K: k, Stride: stride, Pad: pad}
	c.outH = tensor.ConvOutSize(h, k, stride, pad)
	c.outW = tensor.ConvOutSize(w, k, stride, pad)
	if c.outH <= 0 || c.outW <= 0 {
		panic("nn: Conv2D output collapses to zero size")
	}
	c.cols = inC * k * k
	return c
}

// OutShape returns the output geometry (channels, height, width).
func (c *conv2D) OutShape() (int, int, int) { return c.OutC, c.outH, c.outW }

// ParamShapes implements layer.
func (c *conv2D) ParamShapes() []codec.ShapeInfo {
	return []codec.ShapeInfo{
		{Name: "W", Dims: []int{c.OutC, c.InC, c.K, c.K}},
		{Name: "b", Dims: []int{c.OutC}},
	}
}

// Bind implements layer.
func (c *conv2D) Bind(w, g []float64) {
	checkBind(c, w, g)
	c.w, c.g = w, g
	c.wMat.View(c.OutC, c.cols, w[:c.OutC*c.cols])
	c.gwMat.View(c.OutC, c.cols, g[:c.OutC*c.cols])
}

// Init implements layer.
func (c *conv2D) Init(r *rng.RNG) {
	fanIn := c.cols
	fanOut := c.OutC * c.K * c.K
	initUniform(r, c.w[:c.OutC*c.cols], glorot(fanIn, fanOut))
	tensor.Zero(c.w[c.OutC*c.cols:])
}

// OutDim implements layer.
func (c *conv2D) OutDim(int) int { return c.OutC * c.outH * c.outW }

func (c *conv2D) weight() *tensor.Mat { return &c.wMat }
func (c *conv2D) bias() []float64     { return c.w[c.OutC*c.cols:] }
func (c *conv2D) gradW() *tensor.Mat  { return &c.gwMat }
func (c *conv2D) gradB() []float64    { return c.g[c.OutC*c.cols:] }

// colScratch returns the layer's im2col scratch, allocating it on first use.
func (c *conv2D) colScratch() *tensor.Mat {
	if c.colsBuf == nil {
		c.colsBuf = tensor.NewMat(c.cols, c.outH*c.outW)
	}
	return c.colsBuf
}

// Forward implements layer.
func (c *conv2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.C != c.InC*c.H*c.W {
		panic("nn: Conv2D input width mismatch")
	}
	b := x.R
	p := c.outH * c.outW
	c.out = tensor.EnsureMat(c.out, b, c.OutC*p)
	cols := c.colScratch()
	w := c.weight()
	bias := c.bias()
	for s := 0; s < b; s++ {
		tensor.Im2Col(x.Row(s), c.InC, c.H, c.W, c.K, c.K, c.Stride, c.Pad, cols)
		outView := c.outView.View(c.OutC, p, c.out.Row(s))
		tensor.MulInto(outView, w, cols)
		for oc := 0; oc < c.OutC; oc++ {
			row := outView.Row(oc)
			bv := bias[oc]
			for i := range row {
				row[i] += bv
			}
		}
	}
	if train {
		c.x = x
	}
	return c.out
}

// Backward implements layer.
func (c *conv2D) Backward(dout *tensor.Mat) *tensor.Mat {
	if c.x == nil {
		panic("nn: Conv2D Backward before training Forward")
	}
	b := dout.R
	p := c.outH * c.outW
	if !c.skipInputGrad {
		c.dx = tensor.EnsureMat(c.dx, b, c.InC*c.H*c.W)
	}
	cols := c.colScratch()
	gw := c.gradW()
	gb := c.gradB()
	w := c.weight()
	for s := 0; s < b; s++ {
		doutView := c.doutView.View(c.OutC, p, dout.Row(s))
		// dW += dout·colsᵀ, over sample s's columns lowered again; each
		// element adds its dot product, summed from +0, onto g
		tensor.Im2Col(c.x.Row(s), c.InC, c.H, c.W, c.K, c.K, c.Stride, c.Pad, cols)
		tensor.AddMulTransB(gw, doutView, cols)
		// db += row sums of dout
		for oc := 0; oc < c.OutC; oc++ {
			gb[oc] += tensor.Sum(doutView.Row(oc))
		}
		if c.skipInputGrad {
			continue
		}
		// dcols = Wᵀ·dout, then scatter back to image space
		tensor.MulTransAInto(cols, w, doutView)
		dst := c.dx.Row(s)
		tensor.Zero(dst)
		tensor.Col2Im(cols, c.InC, c.H, c.W, c.K, c.K, c.Stride, c.Pad, dst)
	}
	if c.skipInputGrad {
		return nil
	}
	return c.dx
}

// maxPool2D is a non-overlapping (or strided) max pooling layer over CHW
// images flattened one per batch row.
type maxPool2D struct {
	InC, H, W  int
	K, Stride  int
	outH, outW int

	out, dx *tensor.Mat
	argmax  []int32 // flat index into the input row for each output element
}

// newMaxPool2D constructs a max-pool layer with k×k windows.
func newMaxPool2D(inC, h, w, k, stride int) *maxPool2D {
	if inC <= 0 || h <= 0 || w <= 0 || k <= 0 || stride <= 0 {
		panic("nn: MaxPool2D invalid geometry")
	}
	m := &maxPool2D{InC: inC, H: h, W: w, K: k, Stride: stride}
	m.outH = tensor.ConvOutSize(h, k, stride, 0)
	m.outW = tensor.ConvOutSize(w, k, stride, 0)
	if m.outH <= 0 || m.outW <= 0 {
		panic("nn: MaxPool2D output collapses to zero size")
	}
	return m
}

// OutShape returns the output geometry (channels, height, width).
func (m *maxPool2D) OutShape() (int, int, int) { return m.InC, m.outH, m.outW }

// ParamShapes implements layer.
func (m *maxPool2D) ParamShapes() []codec.ShapeInfo { return nil }

// Bind implements layer.
func (m *maxPool2D) Bind(w, g []float64) { checkBind(m, w, g) }

// Init implements layer.
func (m *maxPool2D) Init(*rng.RNG) {}

// OutDim implements layer.
func (m *maxPool2D) OutDim(int) int { return m.InC * m.outH * m.outW }

// Forward implements layer.
func (m *maxPool2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.C != m.InC*m.H*m.W {
		panic("nn: MaxPool2D input width mismatch")
	}
	b := x.R
	p := m.outH * m.outW
	// Both out and argmax are fully overwritten below, so capacity reuse is
	// safe across batch-shape changes.
	m.out = tensor.EnsureMat(m.out, b, m.InC*p)
	if cap(m.argmax) >= b*m.InC*p {
		m.argmax = m.argmax[:b*m.InC*p]
	} else {
		m.argmax = make([]int32, b*m.InC*p)
	}
	for s := 0; s < b; s++ {
		in := x.Row(s)
		out := m.out.Row(s)
		amBase := s * m.InC * p
		for c := 0; c < m.InC; c++ {
			chn := in[c*m.H*m.W:]
			o := c * p
			for oy := 0; oy < m.outH; oy++ {
				for ox := 0; ox < m.outW; ox++ {
					best := -1
					bestV := 0.0
					for ky := 0; ky < m.K; ky++ {
						iy := oy*m.Stride + ky
						if iy >= m.H {
							break
						}
						for kx := 0; kx < m.K; kx++ {
							ix := ox*m.Stride + kx
							if ix >= m.W {
								break
							}
							idx := iy*m.W + ix
							if best == -1 || chn[idx] > bestV {
								best = idx
								bestV = chn[idx]
							}
						}
					}
					out[o] = bestV
					m.argmax[amBase+o] = int32(c*m.H*m.W + best)
					o++
				}
			}
		}
	}
	return m.out
}

// Backward implements layer.
func (m *maxPool2D) Backward(dout *tensor.Mat) *tensor.Mat {
	b := dout.R
	m.dx = tensor.EnsureMat(m.dx, b, m.InC*m.H*m.W)
	tensor.Zero(m.dx.Data)
	p := m.InC * m.outH * m.outW
	for s := 0; s < b; s++ {
		dst := m.dx.Row(s)
		src := dout.Row(s)
		amBase := s * p
		for i, v := range src {
			dst[m.argmax[amBase+i]] += v
		}
	}
	return m.dx
}
