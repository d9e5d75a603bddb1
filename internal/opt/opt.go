// Package opt implements the local solver used by federated clients — Adam
// (the paper's local solver, §6 "Hyperparameters") — plus the proximal-term
// helper that implements the constrained local objective of Eq. 3,
//
//	h_k(w) = F_k(w) + λ/2·‖w − w_global‖².
//
// Adam operates on the flat weight/gradient vectors exposed by nn.Network,
// which keeps it oblivious to layer structure.
package opt

import (
	"math"

	"repro/internal/tensor"
)

// Adam implements Kingma & Ba's optimizer with bias correction. It updates
// a flat weight vector in place from a flat gradient vector, keeping
// per-coordinate moment estimates sized on first use and cleared by Reset.
type Adam struct {
	LR, beta1, beta2, eps float64

	t    int
	m, v []float64
}

// NewAdam returns Adam with the standard defaults (β1=0.9, β2=0.999,
// ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
}

// Step applies one update. len(w) must equal len(g) and stay constant
// across calls between Resets.
func (a *Adam) Step(w, g []float64) {
	if len(w) != len(g) {
		panic("opt: Adam weight/gradient length mismatch")
	}
	if len(a.m) != len(w) {
		a.m = tensor.EnsureVec(a.m, len(w))
		a.v = tensor.EnsureVec(a.v, len(w))
		tensor.Zero(a.m)
		tensor.Zero(a.v)
		a.t = 0
	}
	a.t++
	c := adamConsts{
		b1: a.beta1, b2: a.beta2,
		u1: 1 - a.beta1, u2: 1 - a.beta2,
		c1: 1 - math.Pow(a.beta1, float64(a.t)),
		c2: 1 - math.Pow(a.beta2, float64(a.t)),
		lr: a.LR, eps: a.eps,
	}
	adamStep(w[:len(g)], g, a.m[:len(g)], a.v[:len(g)], &c)
}

// adamConsts carries the per-step scalars into adamStep. Field order is
// load-bearing: step_amd64.s reads the fields by byte offset.
type adamConsts struct {
	b1, b2, u1, u2, c1, c2, lr, eps float64
}

// adamStepGo is the scalar reference update: one Adam step with bias
// correction over every coordinate. The amd64 build runs the SSE2 kernel
// in step_amd64.s instead — two lanes of exactly these operations in
// exactly this order, bit-identical per element — and the equivalence is
// pinned by TestAdamStepAsmMatchesGo and FuzzAdamStep.
func adamStepGo(w, g, m, v []float64, c *adamConsts) {
	// Local reslices pin every slice to len(g) for the compiler, so the
	// loop body carries no bounds checks.
	w = w[:len(g)]
	m = m[:len(g)]
	v = v[:len(g)]
	for i, gv := range g {
		mi := c.b1*m[i] + c.u1*gv
		vi := c.b2*v[i] + c.u2*gv*gv
		m[i] = mi
		v[i] = vi
		mh := mi / c.c1
		vh := vi / c.c2
		w[i] -= c.lr * mh / (math.Sqrt(vh) + c.eps)
	}
}

// Reset clears the moment estimates in place, keeping their storage; the
// numeric state after Reset is identical to a fresh optimizer's.
func (a *Adam) Reset() {
	tensor.Zero(a.m)
	tensor.Zero(a.v)
	a.t = 0
}

// AddProximal adds the gradient of the proximal term λ/2·‖w−anchor‖² to g,
// i.e. g += λ·(w − anchor). This is how clients realize the local constraint
// of Eq. 3; λ=0 is a no-op (FedAvg behaviour).
func AddProximal(g, w, anchor []float64, lambda float64) {
	if lambda == 0 {
		return
	}
	if len(g) != len(w) || len(w) != len(anchor) {
		panic("opt: AddProximal length mismatch")
	}
	for i := range g {
		g[i] += lambda * (w[i] - anchor[i])
	}
}
