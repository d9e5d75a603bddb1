package nn

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// makeBlobs builds a linearly separable 2-class problem.
func makeBlobs(r *rng.RNG, n, dim int) (*tensor.Mat, []int) {
	x := tensor.NewMat(n, dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		y[i] = cls
		center := -1.5
		if cls == 1 {
			center = 1.5
		}
		for j := 0; j < dim; j++ {
			x.Set(i, j, center+0.5*r.Norm())
		}
	}
	return x, y
}

func TestNetworkLearnsBlobs(t *testing.T) {
	r := rng.New(21)
	n := NewMLP(r, 4, 8, 2)
	x, y := makeBlobs(r, 64, 4)
	lr := 0.5
	var first, last float64
	for epoch := 0; epoch < 60; epoch++ {
		n.ZeroGrad()
		loss := n.Backprop(x, y)
		if epoch == 0 {
			first = loss
		}
		last = loss
		tensor.Axpy(-lr, n.Grads(), n.Weights())
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	correct, _ := n.Eval(x, y)
	if correct < 60 {
		t.Fatalf("blob accuracy too low: %d/64", correct)
	}
}

func TestLogisticLearns(t *testing.T) {
	r := rng.New(22)
	n := NewLogistic(r, 6, 2)
	x, y := makeBlobs(r, 80, 6)
	for epoch := 0; epoch < 80; epoch++ {
		n.ZeroGrad()
		n.Backprop(x, y)
		tensor.Axpy(-0.5, n.Grads(), n.Weights())
	}
	correct, _ := n.Eval(x, y)
	if correct < 75 {
		t.Fatalf("logistic accuracy too low: %d/80", correct)
	}
}

func TestSetWeightsRoundTrip(t *testing.T) {
	r := rng.New(23)
	a := NewMLP(r, 3, 5, 2)
	b := NewMLP(rng.New(24), 3, 5, 2)
	b.SetWeights(a.Weights())
	x := tensor.NewMat(4, 3)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	ya := a.Forward(x, false)
	yb := b.Forward(x, false)
	if !slices.Equal(ya.Data, yb.Data) {
		t.Fatal("identical weights gave different outputs")
	}
}

func TestSetWeightsLengthPanics(t *testing.T) {
	n := NewMLP(rng.New(25), 3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("SetWeights with wrong length did not panic")
		}
	}()
	n.SetWeights(make([]float64, 5))
}

func TestZeroGrad(t *testing.T) {
	r := rng.New(26)
	n := NewMLP(r, 3, 4, 2)
	x, y := makeBlobs(r, 8, 3)
	n.Backprop(x, y)
	nonzero := false
	for _, g := range n.Grads() {
		if g != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("Backprop produced all-zero gradients")
	}
	n.ZeroGrad()
	for _, g := range n.Grads() {
		if g != 0 {
			t.Fatal("ZeroGrad left residue")
		}
	}
}

func TestGradAccumulation(t *testing.T) {
	// Two Backprop calls without ZeroGrad must sum gradients.
	r := rng.New(27)
	n := NewMLP(r, 3, 2)
	x, y := makeBlobs(r, 6, 3)
	n.ZeroGrad()
	n.Backprop(x, y)
	once := tensor.Copy(n.Grads())
	n.Backprop(x, y)
	for i, g := range n.Grads() {
		if math.Abs(g-2*once[i]) > 1e-9 {
			t.Fatalf("gradient accumulation broken at %d: %v vs %v", i, g, 2*once[i])
		}
	}
}

func TestParamShapesCoverVector(t *testing.T) {
	n := NewCNN(rng.New(28), CNNConfig{InC: 1, H: 8, W: 8, ConvC: []int{2, 3}, Kernel: 3, Hidden: 6, Classes: 4, PoolEvery: 1})
	total := 0
	for _, s := range n.ParamShapes() {
		total += s.Size()
	}
	if total != n.NumParams() {
		t.Fatalf("shapes cover %d params, vector has %d", total, n.NumParams())
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewMLP(rng.New(31), 4, 6, 2)
	b := NewMLP(rng.New(31), 4, 6, 2)
	for i := range a.Weights() {
		if a.Weights()[i] != b.Weights()[i] {
			t.Fatal("same seed produced different initial weights")
		}
	}
}

func TestLSTMClassifierLearnsTokenPattern(t *testing.T) {
	// Class 0 sequences use tokens {0..3}, class 1 uses {4..7}: trivially
	// separable, the model should fit it quickly.
	cfg := LSTMConfig{Vocab: 8, Emb: 4, Hidden: 6, SeqLen: 5, Classes: 2}
	n := NewLSTMClassifier(rng.New(33), cfg)
	r := rng.New(34)
	batch := 32
	x := tensor.NewMat(batch, cfg.SeqLen)
	y := make([]int, batch)
	for i := 0; i < batch; i++ {
		cls := i % 2
		y[i] = cls
		for tt := 0; tt < cfg.SeqLen; tt++ {
			x.Set(i, tt, float64(4*cls+r.Intn(4)))
		}
	}
	for epoch := 0; epoch < 150; epoch++ {
		n.ZeroGrad()
		n.Backprop(x, y)
		tensor.Axpy(-0.3, n.Grads(), n.Weights())
	}
	correct, _ := n.Eval(x, y)
	if correct < 30 {
		t.Fatalf("LSTM classifier accuracy too low: %d/32", correct)
	}
}

func TestPaperModelBuilders(t *testing.T) {
	if n := NewCNN(rng.New(35), SmallCNN(3, 16, 16, 10)); n.NumParams() == 0 {
		t.Fatal("SmallCNN has no parameters")
	}
	// The paper's Reddit model (embedding 10000→128, LSTM 128) at 1/16 scale.
	cfg := LSTMConfig{Vocab: 625, Emb: 8, Hidden: 8, SeqLen: 10, Classes: 625, Dropout: 0.1, BatchNorm: true}
	if n := NewLSTMClassifier(rng.New(36), cfg); n.NumParams() == 0 {
		t.Fatal("LSTM classifier has no parameters")
	}
}

func BenchmarkMLPBackprop(b *testing.B) {
	r := rng.New(1)
	n := NewMLP(r, 64, 64, 10)
	x := tensor.NewMat(10, 64)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	y := make([]int, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ZeroGrad()
		n.Backprop(x, y)
	}
}

// BenchmarkCNNBackprop times one forward+backward pass of SmallCNN at batch
// 10: with its pooling on 12×12 images, and as the fedavg_cnn_sim workload
// trains it, on 1×10×10 images without pooling. The first pass, which
// sizes every layer buffer, runs before the timer, so a steady-state
// allocation shows in allocs/op.
func BenchmarkCNNBackprop(b *testing.B) {
	for _, tc := range []struct {
		name            string
		h, w, poolEvery int
	}{
		{"1x12x12-pool", 12, 12, 1},
		{"1x10x10", 10, 10, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r := rng.New(1)
			cfg := SmallCNN(1, tc.h, tc.w, 10)
			cfg.PoolEvery = tc.poolEvery
			n := NewCNN(r, cfg)
			x := tensor.NewMat(10, tc.h*tc.w)
			for i := range x.Data {
				x.Data[i] = r.Norm()
			}
			y := make([]int, 10)
			n.Backprop(x, y)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.ZeroGrad()
				n.Backprop(x, y)
			}
		})
	}
}
