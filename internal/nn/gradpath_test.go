package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestBackpropMatchesScratchPath: Backprop into zeroed gradients gives the
// same bits as the scratch-plus-AddTo path the layers used before their
// GEMMs accumulated into g — Dense's dW summed into an Out×In scratch, a
// conv layer's per-sample dW into an OutC×cols scratch, and the LSTM's
// recurrent product into a B×4H scratch, each then added by AddTo. The
// reference networks wrap the same layers in scratchDense, scratchConv and
// scratchLSTM, which keep that path. Every model gets ReLU zeros from its
// activations; the MLP and the CNN also get −0 inputs. Both networks take
// the same SGD step after each batch, so later batches run on moved weights.
func TestBackpropMatchesScratchPath(t *testing.T) {
	cnn := SmallCNN(1, 6, 6, 4)
	cnn.PoolEvery = 0
	lstmCfg := LSTMConfig{Vocab: 9, Emb: 5, Hidden: 6, SeqLen: 4, Classes: 3}
	for _, c := range []struct {
		name    string
		build   func() *Network
		inputs  func(r *rng.RNG, rows int) *tensor.Mat
		classes int
	}{
		{"mlp", func() *Network { return NewMLP(rng.New(5), 12, 16, 8, 3) }, denseInputs(12), 3},
		{"cnn", func() *Network { return NewCNN(rng.New(6), cnn) }, denseInputs(36), 4},
		{"lstm", func() *Network { return NewLSTMClassifier(rng.New(7), lstmCfg) }, tokenInputs(lstmCfg), 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, ref := c.build(), c.build()
			wrapped := 0
			for i, l := range ref.layers {
				switch l := l.(type) {
				case *dense:
					ref.layers[i] = &scratchDense{dense: l}
				case *conv2D:
					ref.layers[i] = &scratchConv{conv2D: l}
				case *lstm:
					ref.layers[i] = &scratchLSTM{lstm: l}
				default:
					continue
				}
				wrapped++
			}
			if wrapped < 2 {
				t.Fatalf("only %d layers use the accumulating GEMMs", wrapped)
			}
			r := rng.New(11)
			for step, rows := range []int{8, 5, 8, 3} {
				x := c.inputs(r, rows)
				labels := make([]int, rows)
				for i := range labels {
					labels[i] = r.Intn(c.classes)
				}
				net.ZeroGrad()
				ref.ZeroGrad()
				loss, refLoss := net.Backprop(x, labels), ref.Backprop(x, labels)
				ctx := fmt.Sprintf("step %d (%d rows)", step, rows)
				if math.Float64bits(loss) != math.Float64bits(refLoss) {
					t.Fatalf("%s: loss %v, scratch path %v", ctx, loss, refLoss)
				}
				zeros := 0
				for i, g := range net.Grads() {
					if math.Float64bits(g) != math.Float64bits(ref.Grads()[i]) {
						t.Fatalf("%s: gradient %d is %x, scratch path %x", ctx, i, math.Float64bits(g), math.Float64bits(ref.Grads()[i]))
					}
					if g == 0 {
						zeros++
					}
				}
				if c.name != "lstm" && zeros == 0 {
					t.Errorf("%s: no zero gradient; the ReLU masks zeroed nothing", ctx)
				}
				for _, n := range []*Network{net, ref} {
					tensor.Axpy(-0.5, n.Grads(), n.Weights())
				}
			}
		})
	}
}

// denseInputs draws normal features with every fifth one −0 and every
// seventh +0.
func denseInputs(dim int) func(r *rng.RNG, rows int) *tensor.Mat {
	return func(r *rng.RNG, rows int) *tensor.Mat {
		x := tensor.NewMat(rows, dim)
		for i := range x.Data {
			switch {
			case i%5 == 0:
				x.Data[i] = math.Copysign(0, -1)
			case i%7 == 0:
				x.Data[i] = 0
			default:
				x.Data[i] = r.Norm()
			}
		}
		return x
	}
}

// tokenInputs draws token-id sequences for the LSTM classifier.
func tokenInputs(cfg LSTMConfig) func(r *rng.RNG, rows int) *tensor.Mat {
	return func(r *rng.RNG, rows int) *tensor.Mat {
		x := tensor.NewMat(rows, cfg.SeqLen)
		for i := range x.Data {
			x.Data[i] = float64(r.Intn(cfg.Vocab))
		}
		return x
	}
}

// scratchDense is dense with its weight gradient summed into a scratch and
// added to g by AddTo.
type scratchDense struct {
	*dense
	scratch *tensor.Mat
}

func (d *scratchDense) Backward(dout *tensor.Mat) *tensor.Mat {
	d.scratch = tensor.EnsureMat(d.scratch, d.outDim, d.inDim)
	tensor.MulTransAInto(d.scratch, dout, d.x)
	tensor.AddTo(d.gradW().Data, d.scratch.Data)
	gb := d.gradB()
	for i := 0; i < dout.R; i++ {
		tensor.AddTo(gb, dout.Row(i))
	}
	if d.skipInputGrad {
		return nil
	}
	d.dx = tensor.EnsureMat(d.dx, dout.R, d.inDim)
	tensor.MulInto(d.dx, dout, d.weight())
	return d.dx
}

// scratchConv is conv2D with each sample's weight gradient computed into a
// scratch and added to g by AddTo.
type scratchConv struct {
	*conv2D
	scratchW *tensor.Mat
}

func (c *scratchConv) Backward(dout *tensor.Mat) *tensor.Mat {
	b, p := dout.R, c.outH*c.outW
	if !c.skipInputGrad {
		c.dx = tensor.EnsureMat(c.dx, b, c.inC*c.inH*c.inW)
	}
	if c.scratchW == nil {
		c.scratchW = tensor.NewMat(c.outC, c.cols)
	}
	cols := c.colScratch()
	gb := c.gradB()
	for s := 0; s < b; s++ {
		doutView := c.doutView.View(c.outC, p, dout.Row(s))
		tensor.Im2Col(c.x.Row(s), c.inC, c.inH, c.inW, c.k, c.k, c.stride, c.pad, cols)
		tensor.MulTransBInto(c.scratchW, doutView, cols)
		tensor.AddTo(c.gradW().Data, c.scratchW.Data)
		for oc := 0; oc < c.outC; oc++ {
			gb[oc] += tensor.Sum(doutView.Row(oc))
		}
		if c.skipInputGrad {
			continue
		}
		tensor.MulTransAInto(cols, c.weight(), doutView)
		dst := c.dx.Row(s)
		tensor.Zero(dst)
		tensor.Col2Im(cols, c.inC, c.inH, c.inW, c.k, c.k, c.stride, c.pad, dst)
	}
	if c.skipInputGrad {
		return nil
	}
	return c.dx
}

// scratchLSTM is lstm with the recurrent product h_{t-1}·Whᵀ computed into
// a scratch and added to the gates by AddTo.
type scratchLSTM struct {
	*lstm
	scratch4H *tensor.Mat
}

func (l *scratchLSTM) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	b, h := x.R, l.hidden
	l.ensureCaches(b)
	l.scratch4H = tensor.EnsureMat(l.scratch4H, b, 4*h)
	l.xs = x
	wx, wh, bias := l.wx(), l.wh(), l.bias()
	tensor.Zero(l.cs[0].Data)
	tensor.Zero(l.hs[0].Data)
	for t := 0; t < l.seqLen; t++ {
		gates := l.gates[t]
		tensor.MulTransBInto(gates, l.stepInput(x, t), wx)
		tensor.MulTransBInto(l.scratch4H, l.hs[t], wh)
		tensor.AddTo(gates.Data, l.scratch4H.Data)
		gates.AddRowVec(bias)
		for s := 0; s < b; s++ {
			gr, cp, cn, hn := gates.Row(s), l.cs[t].Row(s), l.cs[t+1].Row(s), l.hs[t+1].Row(s)
			for j := 0; j < h; j++ {
				i, f, g, o := sigmoid(gr[j]), sigmoid(gr[h+j]), math.Tanh(gr[2*h+j]), sigmoid(gr[3*h+j])
				gr[j], gr[h+j], gr[2*h+j], gr[3*h+j] = i, f, g, o
				cn[j] = f*cp[j] + i*g
				hn[j] = o * math.Tanh(cn[j])
			}
		}
	}
	return l.hs[l.seqLen]
}
