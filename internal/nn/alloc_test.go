package nn

import (
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

// TestConvColCacheSurvivesBatchGrowth: a batch larger than any seen before
// grows the per-sample im2col cache without dropping the matrices it
// already holds. Over batch sizes 2→5→3→5 exactly five cols×p matrices are
// ever allocated (not seven), and once the largest size has been seen,
// alternating sizes allocates nothing.
func TestConvColCacheSurvivesBatchGrowth(t *testing.T) {
	conv := NewConv2D(1, 10, 10, 4, 3, 1, 1)
	c, h, w := conv.OutShape()
	net := NewNetwork(rng.New(3), NewSoftmaxCE(), conv, NewDense(c*h*w, 2))
	batches := map[int]*tensor.Mat{}
	for _, b := range []int{2, 3, 5} {
		batches[b], _ = randBatch(uint64(b), b, 100, 2)
	}
	seen := map[*tensor.Mat]bool{}
	for _, b := range []int{2, 5, 3, 5} {
		net.Forward(batches[b], false)
		for s := 0; s < b; s++ {
			m := conv.colCache[s]
			if m == nil || m.R != 9 || m.C != 100 {
				t.Fatalf("batch %d: colCache[%d] = %+v, want a 9x100 matrix", b, s, m)
			}
			seen[m] = true
		}
	}
	if len(seen) != 5 {
		t.Errorf("batches 2,5,3,5 allocated %d im2col matrices, want 5: growing the cache dropped cached ones", len(seen))
	}
	if testutil.RaceEnabled {
		return // AllocsPerRun is meaningless under -race
	}
	if got := testing.AllocsPerRun(10, func() {
		net.Forward(batches[3], false)
		net.Forward(batches[5], false)
	}); got != 0 {
		t.Errorf("alternating batch sizes 3 and 5 allocates %.1f times per pair, want 0", got)
	}
}
