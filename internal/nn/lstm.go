package nn

import (
	"repro/internal/codec"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// lstm processes a sequence and emits the final hidden state, matching the
// "LSTM layer" of the paper's Reddit model. Input rows are SeqLen steps of
// In features concatenated (the layout Embedding produces); output rows are
// the Hidden-dimensional state after the last step.
//
// Gate layout in the 4H dimension is [i | f | g | o].
type lstm struct {
	in, hidden, seqLen int

	w, g []float64 // Wx (4H×In), Wh (4H×H), b (4H)

	// View headers onto Wx and Wh in w and g, set once in Bind.
	wxMat, whMat, gwxMat, gwhMat tensor.Mat

	// per-step caches, each SeqLen long, batch-major matrices
	xs            *tensor.Mat
	gates         []*tensor.Mat // pre-activation storage reused as post-activation
	cs, hs        []*tensor.Mat // cell and hidden states (index t+1 holds step t output)
	dx            *tensor.Mat
	scratchWx     *tensor.Mat
	scratchWh     *tensor.Mat
	dh, dc, dhNew *tensor.Mat
	// per-step scratch, refilled every step: the step's input rows (B×In),
	// and Backward's pre-activation gate gradient (B×4H) and step input
	// gradient (B×In)
	xt, dgates, dxt *tensor.Mat
}

// newLSTM constructs an LSTM over seqLen steps of in features with the given
// hidden size.
func newLSTM(in, hidden, seqLen int) *lstm {
	if in <= 0 || hidden <= 0 || seqLen <= 0 {
		panic("nn: LSTM invalid dimensions")
	}
	return &lstm{in: in, hidden: hidden, seqLen: seqLen}
}

// ParamShapes implements layer.
func (l *lstm) ParamShapes() []codec.ShapeInfo {
	return []codec.ShapeInfo{
		{Name: "Wx", Dims: []int{4 * l.hidden, l.in}},
		{Name: "Wh", Dims: []int{4 * l.hidden, l.hidden}},
		{Name: "b", Dims: []int{4 * l.hidden}},
	}
}

// Bind implements layer.
func (l *lstm) Bind(w, g []float64) {
	checkBind(l, w, g)
	l.w, l.g = w, g
	h4, nx := 4*l.hidden, 4*l.hidden*l.in
	nh := h4 * l.hidden
	l.wxMat.View(h4, l.in, w[:nx])
	l.whMat.View(h4, l.hidden, w[nx:nx+nh])
	l.gwxMat.View(h4, l.in, g[:nx])
	l.gwhMat.View(h4, l.hidden, g[nx:nx+nh])
}

// Init implements layer. Forget-gate biases start at 1, the standard trick
// that keeps gradients flowing early in training.
func (l *lstm) Init(r *rng.RNG) {
	h := l.hidden
	nx := 4 * h * l.in
	nh := 4 * h * h
	initUniform(r, l.w[:nx], glorot(l.in, h))
	initUniform(r, l.w[nx:nx+nh], glorot(h, h))
	b := l.w[nx+nh:]
	tensor.Zero(b)
	for i := h; i < 2*h; i++ {
		b[i] = 1
	}
}

func (l *lstm) wx() *tensor.Mat  { return &l.wxMat }
func (l *lstm) wh() *tensor.Mat  { return &l.whMat }
func (l *lstm) gwx() *tensor.Mat { return &l.gwxMat }
func (l *lstm) gwh() *tensor.Mat { return &l.gwhMat }
func (l *lstm) bias() []float64 {
	return l.w[4*l.hidden*(l.in+l.hidden):]
}
func (l *lstm) gbias() []float64 {
	return l.g[4*l.hidden*(l.in+l.hidden):]
}

func sigmoid(v float64) float64 { return 1 / (1 + tensor.Exp(-v)) }

// ensureCaches sizes the per-step caches for a batch of b rows, growing
// them by capacity: every one is fully overwritten before it is read, so a
// batch that alternates row counts (training batches, evaluation splits)
// allocates nothing once the largest has been seen.
func (l *lstm) ensureCaches(b int) {
	h := l.hidden
	if l.gates == nil {
		l.gates = make([]*tensor.Mat, l.seqLen)
		l.cs = make([]*tensor.Mat, l.seqLen+1)
		l.hs = make([]*tensor.Mat, l.seqLen+1)
		l.scratchWx = tensor.NewMat(4*h, l.in)
		l.scratchWh = tensor.NewMat(4*h, h)
	}
	for t := range l.gates {
		l.gates[t] = tensor.EnsureMat(l.gates[t], b, 4*h)
	}
	for t := range l.cs {
		l.cs[t] = tensor.EnsureMat(l.cs[t], b, h)
		l.hs[t] = tensor.EnsureMat(l.hs[t], b, h)
	}
	l.dh = tensor.EnsureMat(l.dh, b, h)
	l.dc = tensor.EnsureMat(l.dc, b, h)
	l.dhNew = tensor.EnsureMat(l.dhNew, b, h)
	l.dx = tensor.EnsureMat(l.dx, b, l.seqLen*l.in)
	l.xt = tensor.EnsureMat(l.xt, b, l.in)
	l.dgates = tensor.EnsureMat(l.dgates, b, 4*h)
	l.dxt = tensor.EnsureMat(l.dxt, b, l.in)
}

// Forward implements layer.
func (l *lstm) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.C != l.seqLen*l.in {
		panic("nn: LSTM input width mismatch")
	}
	b := x.R
	l.ensureCaches(b)
	l.xs = x
	h := l.hidden
	wx, wh, bias := l.wx(), l.wh(), l.bias()
	tensor.Zero(l.cs[0].Data)
	tensor.Zero(l.hs[0].Data)
	for t := 0; t < l.seqLen; t++ {
		xt := l.stepInput(x, t)
		gates := l.gates[t]
		// gates = xt·Wxᵀ + h_{t-1}·Whᵀ + b
		tensor.MulTransBInto(gates, xt, wx)
		tensor.AddMulTransB(gates, l.hs[t], wh)
		gates.AddRowVec(bias)
		cPrev := l.cs[t]
		cNew := l.cs[t+1]
		hNew := l.hs[t+1]
		for s := 0; s < b; s++ {
			gr := gates.Row(s)
			cp := cPrev.Row(s)
			cn := cNew.Row(s)
			hn := hNew.Row(s)
			for j := 0; j < h; j++ {
				i := sigmoid(gr[j])
				f := sigmoid(gr[h+j])
				g := tensor.Tanh(gr[2*h+j])
				o := sigmoid(gr[3*h+j])
				// store post-activation values for backward
				gr[j], gr[h+j], gr[2*h+j], gr[3*h+j] = i, f, g, o
				cn[j] = f*cp[j] + i*g
				hn[j] = o * tensor.Tanh(cn[j])
			}
		}
	}
	return l.hs[l.seqLen]
}

// stepInput returns the batch view of step t: rows are x[s][t*In:(t+1)*In].
// The rows are strided in the original matrix, so they are copied into the
// B×In scratch, which the next call overwrites.
func (l *lstm) stepInput(x *tensor.Mat, t int) *tensor.Mat {
	out := l.xt
	for s := 0; s < x.R; s++ {
		copy(out.Row(s), x.Row(s)[t*l.in:(t+1)*l.in])
	}
	return out
}

// Backward implements layer (full backpropagation through time).
func (l *lstm) Backward(dout *tensor.Mat) *tensor.Mat {
	if l.xs == nil {
		panic("nn: LSTM Backward before training Forward")
	}
	b := dout.R
	h := l.hidden
	wx, wh := l.wx(), l.wh()
	gwx, gwh, gb := l.gwx(), l.gwh(), l.gbias()

	copy(l.dh.Data, dout.Data)
	tensor.Zero(l.dc.Data)
	tensor.Zero(l.dx.Data)
	dgates, dxt := l.dgates, l.dxt
	for t := l.seqLen - 1; t >= 0; t-- {
		gates := l.gates[t]
		cPrev := l.cs[t]
		cNew := l.cs[t+1]
		for s := 0; s < b; s++ {
			gr := gates.Row(s)
			dg := dgates.Row(s)
			dhRow := l.dh.Row(s)
			dcRow := l.dc.Row(s)
			cp := cPrev.Row(s)
			cn := cNew.Row(s)
			for j := 0; j < h; j++ {
				i, f, g, o := gr[j], gr[h+j], gr[2*h+j], gr[3*h+j]
				tc := tensor.Tanh(cn[j])
				dc := dcRow[j] + dhRow[j]*o*(1-tc*tc)
				do := dhRow[j] * tc
				di := dc * g
				dgg := dc * i
				df := dc * cp[j]
				// pre-activation gradients
				dg[j] = di * i * (1 - i)
				dg[h+j] = df * f * (1 - f)
				dg[2*h+j] = dgg * (1 - g*g)
				dg[3*h+j] = do * o * (1 - o)
				dcRow[j] = dc * f // flows to previous step
			}
		}
		// parameter grads: dWx += dgatesᵀ·x_t ; dWh += dgatesᵀ·h_{t-1}.
		// Each step's product is summed into a scratch and added once: g
		// already holds the later steps' sums, so adding the terms onto it
		// one by one (AddMulTransA) would round differently.
		xt := l.stepInput(l.xs, t)
		tensor.MulTransAInto(l.scratchWx, dgates, xt)
		tensor.AddTo(gwx.Data, l.scratchWx.Data)
		tensor.MulTransAInto(l.scratchWh, dgates, l.hs[t])
		tensor.AddTo(gwh.Data, l.scratchWh.Data)
		for s := 0; s < b; s++ {
			tensor.AddTo(gb, dgates.Row(s))
		}
		// input grad for this step: dx_t = dgates·Wx
		tensor.MulInto(dxt, dgates, wx)
		for s := 0; s < b; s++ {
			copy(l.dx.Row(s)[t*l.in:(t+1)*l.in], dxt.Row(s))
		}
		// hidden grad for previous step: dh_{t-1} = dgates·Wh
		tensor.MulInto(l.dhNew, dgates, wh)
		l.dh, l.dhNew = l.dhNew, l.dh
	}
	return l.dx
}
