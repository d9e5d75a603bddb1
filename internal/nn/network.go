package nn

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Network is a sequential stack of layers whose parameters live in a single
// flat vector. That vector is the unit of exchange in the FL system: the
// codec compresses it, the server aggregates it, and the proximal term
// penalizes distance from it.
type Network struct {
	layers  []layer
	loss    loss
	weights []float64
	grads   []float64
	shapes  []codec.ShapeInfo // concatenated layer shapes, for the codec

	dlogits *tensor.Mat
}

// inputGradSkipper is implemented by layers that can skip computing the
// gradient with respect to their input. newNetwork marks the stack's first
// layer: its input is the data batch, so nothing consumes that gradient
// and the (often largest) dx matmul of every backward pass can be dropped.
// A marked layer's Backward returns nil.
type inputGradSkipper interface{ SkipInputGrad() }

// newNetwork builds a network from layers, allocates the flat parameter
// store, binds every layer and initializes weights from r. loss may be nil
// for feature extractors; Backprop then panics.
func newNetwork(r *rng.RNG, loss loss, layers ...layer) *Network {
	if len(layers) == 0 {
		panic("nn: NewNetwork needs at least one layer")
	}
	total := 0
	for _, l := range layers {
		total += paramSize(l)
	}
	n := &Network{
		layers:  layers,
		loss:    loss,
		weights: make([]float64, total),
		grads:   make([]float64, total),
	}
	off := 0
	for _, l := range layers {
		sz := paramSize(l)
		l.Bind(n.weights[off:off+sz], n.grads[off:off+sz])
		l.Init(r)
		off += sz
		n.shapes = append(n.shapes, l.ParamShapes()...)
	}
	if s, ok := layers[0].(inputGradSkipper); ok {
		s.SkipInputGrad()
	}
	return n
}

// Reseed restarts the random streams of the stack's stochastic layers
// (Dropout masks), giving layer i the child of r labeled i. r is not
// advanced and a network without such layers draws nothing, so calling it
// before a training pass costs a deterministic network nothing and makes a
// stochastic one a pure function of (weights, batches, r) — independent of
// what the replica trained before.
func (n *Network) Reseed(r *rng.RNG) {
	for i, l := range n.layers {
		if s, ok := l.(interface{ Reseed(rng.RNG) }); ok {
			s.Reseed(r.SplitLabeledValue(uint64(i)))
		}
	}
}

// NumParams returns the total parameter count.
func (n *Network) NumParams() int { return len(n.weights) }

// Weights returns the live flat parameter vector (not a copy). Mutating it
// mutates the model.
func (n *Network) Weights() []float64 { return n.weights }

// Grads returns the live flat gradient vector (not a copy).
func (n *Network) Grads() []float64 { return n.grads }

// ParamShapes returns the parameter block shapes in vector order, which the
// codec transmits so the receiver can unmarshal (§4.3).
func (n *Network) ParamShapes() []codec.ShapeInfo { return n.shapes }

// SetWeights copies v into the parameter vector.
func (n *Network) SetWeights(v []float64) {
	if len(v) != len(n.weights) {
		panic(fmt.Sprintf("nn: SetWeights got %d floats, want %d", len(v), len(n.weights)))
	}
	copy(n.weights, v)
}

// WeightsCopy returns a copy of the parameter vector.
func (n *Network) WeightsCopy() []float64 { return tensor.Copy(n.weights) }

// ZeroGrad clears the gradient vector.
func (n *Network) ZeroGrad() { tensor.Zero(n.grads) }

// Forward runs the stack on a batch.
func (n *Network) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	h := x
	for _, l := range n.layers {
		h = l.Forward(h, train)
	}
	return h
}

// Backprop runs forward in training mode, computes the loss against labels,
// and backpropagates, accumulating gradients. It returns the mean loss.
// Call ZeroGrad first unless gradient accumulation is intended.
func (n *Network) Backprop(x *tensor.Mat, labels []int) float64 {
	if n.loss == nil {
		panic("nn: Backprop on a network without a loss")
	}
	logits := n.Forward(x, true)
	n.dlogits = tensor.EnsureMat(n.dlogits, logits.R, logits.C)
	lv := n.loss.Compute(logits, labels, n.dlogits)
	d := n.dlogits
	for i := len(n.layers) - 1; i >= 0; i-- {
		d = n.layers[i].Backward(d)
	}
	return lv
}

// Eval runs the network in inference mode and returns the number of correct
// argmax predictions and the mean loss over the batch.
func (n *Network) Eval(x *tensor.Mat, labels []int) (correct int, loss float64) {
	logits := n.Forward(x, false)
	n.dlogits = tensor.EnsureMat(n.dlogits, logits.R, logits.C)
	if n.loss != nil {
		loss = n.loss.Compute(logits, labels, n.dlogits)
	}
	for i := 0; i < logits.R; i++ {
		if tensor.ArgMax(logits.Row(i)) == labels[i] {
			correct++
		}
	}
	return correct, loss
}
