package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// The steady-state allocation ceilings for the training hot path. The
// forward and backward passes reuse every activation, gradient and im2col
// buffer once shapes have stabilized, so after one warm-up step the ceiling
// is zero — any alloc that creeps back into the inner loop fails here
// before it can show up as a benchmark regression.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("-race instruments allocations; AllocsPerRun counts are meaningless")
	}
}

func randBatch(seed uint64, n, dim, classes int) (*tensor.Mat, []int) {
	r := rng.New(seed)
	x := tensor.NewMat(n, dim)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = r.Intn(classes)
	}
	return x, labels
}

func assertAllocFree(t *testing.T, what string, ceiling float64, f func()) {
	t.Helper()
	f() // warm up: first call grows activation/scratch buffers to shape
	f()
	if got := testing.AllocsPerRun(20, f); got > ceiling {
		t.Errorf("%s allocates %.1f times per run in steady state, ceiling %.0f", what, got, ceiling)
	}
}

// TestDenseHotPathAllocFree pins forward and forward+backward of the MLP
// (Dense + ReLU + softmax-CE) at zero steady-state allocations.
func TestDenseHotPathAllocFree(t *testing.T) {
	skipUnderRace(t)
	net := NewMLP(rng.New(7), 20, 16, 5)
	x, labels := randBatch(1, 8, 20, 5)
	assertAllocFree(t, "Dense forward", 0, func() { net.Forward(x, true) })
	assertAllocFree(t, "Dense forward+backward", 0, func() {
		net.ZeroGrad()
		net.Backprop(x, labels)
	})
}

// TestLSTMHotPathAllocFree pins the sequence stacks (Embedding + LSTM +
// Dropout + Dense head), including the LSTM's per-step input and gate
// gradient scratch, at zero steady-state allocations. The reddit case is
// the paper's Reddit classifier, with BatchNorm after the dropout; each
// step alternates a training batch with a smaller split, as training and
// evaluation do, so every scratch must hold across row counts.
func TestLSTMHotPathAllocFree(t *testing.T) {
	skipUnderRace(t)
	for _, tc := range []struct {
		name string
		cfg  LSTMConfig
	}{
		{"dropout", LSTMConfig{Vocab: 9, Emb: 5, Hidden: 6, SeqLen: 4, Classes: 3, Dropout: 0.1}},
		{"reddit", LSTMConfig{Vocab: 9, Emb: 5, Hidden: 6, SeqLen: 4, Classes: 3, Dropout: 0.1, BatchNorm: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewLSTMClassifier(rng.New(7), tc.cfg)
			x, split := tokenInputs(tc.cfg)(rng.New(3), 8), tokenInputs(tc.cfg)(rng.New(4), 5)
			_, labels := randBatch(3, 8, 1, tc.cfg.Classes)
			_, splitLabels := randBatch(4, 5, 1, tc.cfg.Classes)
			assertAllocFree(t, "LSTM forward", 0, func() {
				net.Forward(x, true)
				net.Forward(split, false)
			})
			assertAllocFree(t, "LSTM forward+backward", 0, func() {
				net.ZeroGrad()
				net.Backprop(x, labels)
				net.Backprop(split, splitLabels)
			})
		})
	}
}

// TestConvHotPathAllocFree pins the convolutional stack (Conv2D + pool +
// Dense head), including the per-sample im2col scratch, at zero
// steady-state allocations.
func TestConvHotPathAllocFree(t *testing.T) {
	skipUnderRace(t)
	net := NewCNN(rng.New(7), SmallCNN(1, 12, 12, 4))
	x, labels := randBatch(2, 4, 12*12, 4)
	assertAllocFree(t, "Conv forward", 0, func() { net.Forward(x, true) })
	assertAllocFree(t, "Conv forward+backward", 0, func() {
		net.ZeroGrad()
		net.Backprop(x, labels)
	})
}

// TestConvColScratchSharedAcrossBatches: a conv layer holds one cols×p
// im2col scratch whatever the batch size — the same 9×100 matrix at batch
// sizes 2, 5 and 3 — alternating batch sizes allocates nothing, and the
// gradients Backprop accumulates from columns it lowers again in Backward
// are bit-equal to those of colCacheConv, which keeps every sample's
// forward columns, over growing and shrinking batches.
func TestConvColScratchSharedAcrossBatches(t *testing.T) {
	newNet := func(wrap func(*conv2D) layer) (*Network, *conv2D) {
		head := newConv2D(1, 10, 10, 4, 3, 1, 1)
		mid := newConv2D(4, 10, 10, 4, 3, 1, 1)
		c, h, w := mid.OutShape()
		return newNetwork(rng.New(3), newSoftmaxCE(), wrap(head), newReLU(), wrap(mid), newDense(c*h*w, 2)), head
	}
	net, conv := newNet(func(c *conv2D) layer { return c })
	ref, _ := newNet(func(c *conv2D) layer { return &colCacheConv{conv2D: c} })
	batches := map[int]*tensor.Mat{}
	labels := map[int][]int{}
	for _, b := range []int{1, 2, 3, 5} {
		batches[b], labels[b] = randBatch(uint64(b), b, 100, 2)
	}

	var scratch *tensor.Mat
	for _, b := range []int{2, 5, 3} {
		net.Forward(batches[b], false)
		m := conv.colsBuf
		if m == nil || m.R != 9 || m.C != 100 {
			t.Fatalf("batch %d: im2col scratch = %+v, want a 9x100 matrix", b, m)
		}
		if scratch != nil && m != scratch {
			t.Fatalf("batch %d: the layer replaced its im2col scratch", b)
		}
		scratch = m
	}

	for _, b := range []int{2, 5, 3, 1, 5} {
		net.ZeroGrad()
		ref.ZeroGrad()
		loss, refLoss := net.Backprop(batches[b], labels[b]), ref.Backprop(batches[b], labels[b])
		if math.Float64bits(loss) != math.Float64bits(refLoss) {
			t.Fatalf("batch %d: loss %v, reference %v", b, loss, refLoss)
		}
		for i, g := range net.Grads() {
			if math.Float64bits(g) != math.Float64bits(ref.Grads()[i]) {
				t.Fatalf("batch %d: gradient %d is %v, per-sample cached columns give %v", b, i, g, ref.Grads()[i])
			}
		}
	}
	if conv.colsBuf != scratch {
		t.Fatal("Backprop replaced the im2col scratch")
	}

	if testutil.RaceEnabled {
		return // AllocsPerRun is meaningless under -race
	}
	if got := testing.AllocsPerRun(10, func() {
		net.Forward(batches[3], false)
		net.Backprop(batches[5], labels[5])
		net.Forward(batches[5], false)
		net.Backprop(batches[3], labels[3])
	}); got != 0 {
		t.Errorf("alternating batch sizes 3 and 5 allocates %.1f times per cycle, want 0", got)
	}
}

// colCacheConv is the reference lowering: Forward keeps one im2col matrix
// per sample and Backward multiplies by the cached columns instead of
// lowering the input again.
type colCacheConv struct {
	*conv2D
	cache           []*tensor.Mat
	dcols           *tensor.Mat
	scratchW        *tensor.Mat
	doutMat, outMat tensor.Mat
}

func (c *colCacheConv) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	b, p := x.R, c.outH*c.outW
	c.out = tensor.EnsureMat(c.out, b, c.OutC*p)
	for len(c.cache) < b {
		c.cache = append(c.cache, tensor.NewMat(c.cols, p))
	}
	for s := 0; s < b; s++ {
		tensor.Im2Col(x.Row(s), c.InC, c.H, c.W, c.K, c.K, c.Stride, c.Pad, c.cache[s])
		out := c.outMat.View(c.OutC, p, c.out.Row(s))
		tensor.MulInto(out, c.weight(), c.cache[s])
		for oc, bv := range c.bias() {
			row := out.Row(oc)
			for i := range row {
				row[i] += bv
			}
		}
	}
	return c.out
}

func (c *colCacheConv) Backward(dout *tensor.Mat) *tensor.Mat {
	b, p := dout.R, c.outH*c.outW
	if c.scratchW == nil {
		c.scratchW = tensor.NewMat(c.OutC, c.cols)
		c.dcols = tensor.NewMat(c.cols, p)
	}
	if !c.skipInputGrad {
		c.dx = tensor.EnsureMat(c.dx, b, c.InC*c.H*c.W)
	}
	gb := c.gradB()
	for s := 0; s < b; s++ {
		d := c.doutMat.View(c.OutC, p, dout.Row(s))
		tensor.MulTransBInto(c.scratchW, d, c.cache[s])
		tensor.AddTo(c.gradW().Data, c.scratchW.Data)
		for oc := range gb {
			gb[oc] += tensor.Sum(d.Row(oc))
		}
		if c.skipInputGrad {
			continue
		}
		tensor.MulTransAInto(c.dcols, c.weight(), d)
		dst := c.dx.Row(s)
		tensor.Zero(dst)
		tensor.Col2Im(c.dcols, c.InC, c.H, c.W, c.K, c.K, c.Stride, c.Pad, dst)
	}
	if c.skipInputGrad {
		return nil
	}
	return c.dx
}
