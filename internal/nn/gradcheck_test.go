package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// GradCheck verifies a network's analytic gradients against central finite
// differences on the given batch. It returns the worst relative error over
// all parameters. Networks with stochastic layers (Dropout) must be checked
// with them off, as TestGradCheckEmbeddingLSTM does.
//
// The relative error uses the standard symmetric normalization
// |a−n| / max(1e-8, |a|+|n|).
func GradCheck(n *Network, x *tensor.Mat, labels []int, eps float64) float64 {
	n.ZeroGrad()
	n.Backprop(x, labels)
	analytic := tensor.Copy(n.Grads())

	w := n.Weights()
	worst := 0.0
	for i := range w {
		orig := w[i]
		w[i] = orig + eps
		lp := n.lossOnly(x, labels)
		w[i] = orig - eps
		lm := n.lossOnly(x, labels)
		w[i] = orig
		numeric := (lp - lm) / (2 * eps)
		den := math.Abs(analytic[i]) + math.Abs(numeric)
		if den < 1e-8 {
			den = 1e-8
		}
		rel := math.Abs(analytic[i]-numeric) / den
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

// lossOnly evaluates the training-mode loss without touching gradients.
func (n *Network) lossOnly(x *tensor.Mat, labels []int) float64 {
	logits := n.Forward(x, true)
	d := tensor.NewMat(logits.R, logits.C)
	return n.loss.Compute(logits, labels, d)
}

// gradCheckNet verifies the full analytic backward pass of a network
// against central differences. tol is loose-ish because float64 central
// differences on deep nets accumulate roundoff.
func gradCheckNet(t *testing.T, n *Network, in, batch, classes int, tol float64) {
	t.Helper()
	r := rng.New(99)
	x := tensor.NewMat(batch, in)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = r.Intn(classes)
	}
	if worst := GradCheck(n, x, labels, 1e-5); worst > tol {
		t.Fatalf("gradient check failed: worst relative error %.3e > %.1e", worst, tol)
	}
}

func TestGradCheckDense(t *testing.T) {
	n := newNetwork(rng.New(1), newSoftmaxCE(), newDense(5, 4))
	gradCheckNet(t, n, 5, 3, 4, 1e-5)
}

func TestGradCheckMLP(t *testing.T) {
	n := NewMLP(rng.New(2), 6, 8, 4)
	gradCheckNet(t, n, 6, 4, 4, 1e-5)
}

func TestGradCheckConv(t *testing.T) {
	conv := newConv2D(2, 5, 5, 3, 3, 1, 1)
	c, h, w := conv.OutShape()
	n := newNetwork(rng.New(5), newSoftmaxCE(), conv, newReLU(), newDense(c*h*w, 3))
	gradCheckNet(t, n, 2*5*5, 2, 3, 1e-4)
}

func TestGradCheckConvStride2NoPad(t *testing.T) {
	conv := newConv2D(1, 6, 6, 2, 2, 2, 0)
	c, h, w := conv.OutShape()
	n := newNetwork(rng.New(6), newSoftmaxCE(), conv, newDense(c*h*w, 2))
	gradCheckNet(t, n, 36, 2, 2, 1e-4)
}

func TestGradCheckMaxPool(t *testing.T) {
	pool := newMaxPool2D(2, 4, 4, 2, 2)
	c, h, w := pool.OutShape()
	n := newNetwork(rng.New(7), newSoftmaxCE(), pool, newDense(c*h*w, 3))
	gradCheckNet(t, n, 2*4*4, 2, 3, 1e-4)
}

func TestGradCheckCNN(t *testing.T) {
	n := NewCNN(rng.New(8), CNNConfig{InC: 1, H: 6, W: 6, ConvC: []int{2, 3}, Kernel: 3, Hidden: 5, Classes: 3, PoolEvery: 1})
	gradCheckNet(t, n, 36, 2, 3, 5e-4)
}

func TestGradCheckLSTM(t *testing.T) {
	lstm := newLSTM(3, 4, 3)
	n := newNetwork(rng.New(9), newSoftmaxCE(), lstm, newDense(4, 3))
	gradCheckNet(t, n, 3*3, 2, 3, 1e-4)
}

func TestGradCheckEmbeddingLSTM(t *testing.T) {
	// Token inputs must be valid ids, so build x by hand.
	vocab, emb, hidden, seqLen, classes := 7, 3, 4, 4, 3
	n := NewLSTMClassifier(rng.New(10), LSTMConfig{
		Vocab: vocab, Emb: emb, Hidden: hidden, SeqLen: seqLen, Classes: classes,
		Dropout: 0, BatchNorm: false,
	})
	r := rng.New(11)
	batch := 3
	x := tensor.NewMat(batch, seqLen)
	for i := range x.Data {
		x.Data[i] = float64(r.Intn(vocab))
	}
	labels := []int{0, 2, 1}
	// The deep embedding→LSTM chain produces some gradients near the
	// float64 finite-difference noise floor; a larger step and tolerance
	// keep the check meaningful without flagging roundoff.
	if worst := GradCheck(n, x, labels, 1e-4); worst > 1e-3 {
		t.Fatalf("embedding+LSTM gradient check failed: %.3e", worst)
	}
}

func TestGradCheckBatchNorm(t *testing.T) {
	// BatchNorm updates running stats on every training forward, but in
	// train mode the loss depends only on batch statistics, so finite
	// differences remain valid.
	n := newNetwork(rng.New(12), newSoftmaxCE(), newDense(4, 6), newBatchNorm(6), newDense(6, 3))
	gradCheckNet(t, n, 4, 5, 3, 1e-4)
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	d := newDropout(0.5)
	d.Bind(nil, nil)
	d.Init(rng.New(13))
	x := tensor.NewMat(4, 8)
	for i := range x.Data {
		x.Data[i] = 1
	}
	out := d.Forward(x, true)
	dout := tensor.NewMat(4, 8)
	for i := range dout.Data {
		dout.Data[i] = 1
	}
	dx := d.Backward(dout)
	// Where the forward output is zero the gradient must be zero; where it
	// passed (scaled by 1/keep) the gradient must carry the same scale.
	for i := range out.Data {
		if out.Data[i] == 0 && dx.Data[i] != 0 {
			t.Fatal("gradient leaks through dropped unit")
		}
		if out.Data[i] != 0 && dx.Data[i] != out.Data[i] {
			t.Fatal("gradient scale mismatch on kept unit")
		}
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	d := newDropout(0.9)
	d.Bind(nil, nil)
	d.Init(rng.New(14))
	x := tensor.NewMat(2, 4)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	out := d.Forward(x, false)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatal("eval-mode dropout is not identity")
		}
	}
}
