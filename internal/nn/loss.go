package nn

import (
	"math"

	"repro/internal/tensor"
)

// loss turns final-layer outputs and integer labels into a scalar loss and
// the gradient with respect to the outputs. Implementations must average
// over the batch so learning rates are batch-size independent.
type loss interface {
	// Compute returns the mean loss over the batch and writes dL/dlogits
	// into dlogits (same shape as logits).
	Compute(logits *tensor.Mat, labels []int, dlogits *tensor.Mat) float64
}

// softmaxCE is the softmax cross-entropy loss used by every classification
// model in the paper.
type softmaxCE struct {
	probs []float64
}

// newSoftmaxCE constructs the loss.
func newSoftmaxCE() *softmaxCE { return &softmaxCE{} }

// Compute implements loss.
func (l *softmaxCE) Compute(logits *tensor.Mat, labels []int, dlogits *tensor.Mat) float64 {
	if len(labels) != logits.R {
		panic("nn: SoftmaxCE label count mismatch")
	}
	if dlogits.R != logits.R || dlogits.C != logits.C {
		panic("nn: SoftmaxCE dlogits shape mismatch")
	}
	if len(l.probs) != logits.C {
		l.probs = make([]float64, logits.C)
	}
	n := logits.R
	invN := 1 / float64(n)
	total := 0.0
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 || y >= logits.C {
			panic("nn: SoftmaxCE label out of range")
		}
		tensor.Softmax(logits.Row(i), l.probs)
		p := l.probs[y]
		if p < 1e-12 {
			p = 1e-12
		}
		total += -math.Log(p)
		drow := dlogits.Row(i)
		for j, pj := range l.probs {
			drow[j] = pj * invN
		}
		drow[y] -= invN
	}
	return total * invN
}
