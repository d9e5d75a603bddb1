// Package nn is the neural-network substrate: layers with analytic
// backpropagation, a Network container with a single flat parameter vector,
// and builders for the model architectures used in the FedAT paper (CNN for
// the image datasets, logistic regression for Sentiment140, and an
// embedding+LSTM classifier for Reddit).
//
// Design notes:
//
//   - All parameters of a network live in ONE flat []float64 (and all
//     gradients in a parallel flat slice). Layers are bound to subslices.
//     This makes the FL plumbing trivial: model exchange, weighted
//     aggregation, the proximal term ‖w−w_global‖², and the polyline codec
//     all operate on flat vectors, exactly the "marshalling" the paper
//     describes in §4.3.
//   - Layers carry their forward caches, so a layer instance is owned by a
//     single goroutine (one federated client). Parallelism across clients
//     happens one level up.
//   - Gradients ACCUMULATE across Backprop calls until ZeroGrad, which is
//     what mini-batch averaging and gradient checking both want.
package nn

import (
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// layer is a differentiable network stage.
//
// The lifecycle is: construct → Bind(w, g) → Init(rng) → Forward/Backward.
// Forward with train=true must cache whatever Backward needs; Backward
// receives dL/d(output) and returns dL/d(input) while accumulating parameter
// gradients into the bound gradient subslice.
type layer interface {
	// ParamShapes lists the layer's parameter blocks in binding order, in
	// the form the codec transmits alongside compressed weights (§4.3 step
	// 2). Parameter-free layers return nil.
	ParamShapes() []codec.ShapeInfo
	// Bind hands the layer its weight and gradient subslices. len(w) ==
	// len(g) == total size of ParamShapes.
	Bind(w, g []float64)
	// Init writes initial weights into the bound slice.
	Init(r *rng.RNG)
	// Forward computes the layer output for a batch (rows are samples).
	Forward(x *tensor.Mat, train bool) *tensor.Mat
	// Backward consumes dL/doutput and returns dL/dinput.
	Backward(dout *tensor.Mat) *tensor.Mat
	// OutDim reports the per-sample output width for input width in.
	OutDim(in int) int
}

func paramSize(l layer) int {
	n := 0
	for _, s := range l.ParamShapes() {
		n += s.Size()
	}
	return n
}

// glorot returns a Glorot/Xavier uniform limit for a fanIn×fanOut block.
func glorot(fanIn, fanOut int) float64 {
	return math.Sqrt(6 / float64(fanIn+fanOut))
}

// initUniform fills w from U(-a, a).
func initUniform(r *rng.RNG, w []float64, a float64) {
	for i := range w {
		w[i] = r.Uniform(-a, a)
	}
}

func checkBind(l layer, w, g []float64) {
	want := paramSize(l)
	if len(w) != want || len(g) != want {
		panic(fmt.Sprintf("nn: Bind got %d/%d floats, want %d", len(w), len(g), want))
	}
}
