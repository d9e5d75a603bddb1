package fl

import (
	"fmt"

	"repro/internal/tensor"
)

// The staleness weight-function names accepted by StalenessConfig.Func and
// the CLIs' -stale-func flag.
const (
	StaleFuncPoly  = "poly"  // (s+1)^(−a), Xie et al.'s polynomial discount
	StaleFuncExp   = "exp"   // e^(−a·s)
	StaleFuncConst = "const" // 1 — no discount
	StaleFuncHinge = "hinge" // 1/(a·s+1), harmonic decay
)

// StaleFuncs lists the weight-function names in display order.
var StaleFuncs = []string{StaleFuncPoly, StaleFuncExp, StaleFuncConst, StaleFuncHinge}

// StaleExpOff explicitly pins the staleness decay to 0 — constant
// weighting through the polynomial form. StalenessConfig.Alpha 0 means "use
// the default", so an explicit zero needs a sentinel, mirroring LambdaOff.
const StaleExpOff = -1.0

// StalenessConfig parameterizes the async family's staleness discount
// g(s): how much an update that trained against a snapshot s global
// updates old still counts.
type StalenessConfig struct {
	// Func names the weight function (StaleFuncPoly & co). "" means poly.
	Func string
	// Alpha is the decay parameter a. 0 inherits the 0.5 default;
	// StaleExpOff (any negative value) pins it to exactly 0.
	Alpha float64
}

// Weight evaluates the weight function at staleness s ≥ 0. A negative
// Alpha (StaleExpOff) evaluates as exactly 0.
func (sc StalenessConfig) Weight(s float64) float64 {
	a := sc.Alpha
	if a < 0 {
		a = 0
	}
	switch sc.Func {
	case StaleFuncExp:
		return tensor.Exp(-a * s)
	case StaleFuncConst:
		return 1
	case StaleFuncHinge:
		return 1 / (a*s + 1)
	default: // "" and StaleFuncPoly
		return tensor.Pow(s+1, -a)
	}
}

// ---------------------------------------------------------------------------
// asyncState is what the async family's rules share: one model vector, the
// server blend weight α and the staleness discount g. g is the run's
// RunConfig.Staleness, the value the adaptive-LR stage reads too, so the
// fold and the learning-rate scale cannot disagree.

type asyncState struct {
	modelState
	alpha float64
	sc    StalenessConfig
}

func (a *asyncState) Init(rs *runState) error {
	a.global = rs.fab.InitialWeights()
	a.alpha = asyncAlpha
	a.sc = rs.cfg.Staleness
	return nil
}

// weight is g(t − start): the discount of an update anchored at global
// update count start, folded now. An anchor ahead of the clock counts as
// fresh (it cannot happen for the oldest-member anchor: StartRound is a
// past Rounds() and version only grows).
func (a *asyncState) weight(start int) float64 {
	s := float64(a.version - start)
	if s < 0 {
		s = 0
	}
	return a.sc.Weight(s)
}

// ---------------------------------------------------------------------------
// staleness, fedasync: Xie et al.'s FedAsync mixing — each arriving update
// blends into the global model with weight α·g(t − τ), g the configured
// weight function (polynomial (s+1)^(−a) by default). The two registry keys
// are one rule with two anchors τ: "staleness" measures the whole fold from
// its OLDEST member's download (the batch anchor, fold.startRound),
// "fedasync" each update from its OWN (core.ClientUpdate.StartRound). On a
// fold of one (client pacing) they are identical; under fedbuff buffering
// (K > 1) the per-update anchor discounts each buffered update individually
// instead of dragging fresh members down to the batch's most stale one.

type stalenessRule struct {
	asyncState
	perUpdate bool
}

func (r *stalenessRule) Fold(f fold) ([]float64, error) {
	updates := f.updates()
	if len(updates) == 0 {
		return nil, fmt.Errorf("staleness fold with no client updates")
	}
	start := f.startRound()
	for _, u := range updates {
		if len(u.Weights) != len(r.global) {
			return nil, fmt.Errorf("staleness fold: update has %d weights, want %d", len(u.Weights), len(r.global))
		}
		if r.perUpdate {
			start = u.StartRound
		}
		tensor.Lerp(r.global, u.Weights, r.alpha*r.weight(start))
	}
	r.version++
	return r.global, nil
}

// ---------------------------------------------------------------------------
// asyncsgd: FedBuff's gradient-style buffered server step — each update
// contributes its staleness-weighted model delta and the buffer's mean
// delta is applied as one server step of size α:
//
//	w ← w + α/K · Σ_k g(t − τ_k)·(w_k − w)
//
// Unlike fedasync's sequential blends, one fold is one server step, so the
// buffer's members all measure their delta against the same pre-fold model.

type asyncSGDRule struct {
	asyncState
	delta []float64 // fold scratch, reused — the fold stays alloc-free
}

func (r *asyncSGDRule) Init(rs *runState) error {
	err := r.asyncState.Init(rs)
	r.delta = make([]float64, len(r.global))
	return err
}

func (r *asyncSGDRule) Fold(f fold) ([]float64, error) {
	updates := f.updates()
	if len(updates) == 0 {
		return nil, fmt.Errorf("asyncsgd fold with no client updates")
	}
	tensor.Zero(r.delta)
	for _, u := range updates {
		if len(u.Weights) != len(r.global) {
			return nil, fmt.Errorf("asyncsgd fold: update has %d weights, want %d", len(u.Weights), len(r.global))
		}
		g := r.weight(u.StartRound)
		for i, w := range u.Weights {
			r.delta[i] += g * (w - r.global[i])
		}
	}
	tensor.Axpy(r.alpha/float64(len(updates)), r.delta, r.global)
	r.version++
	return r.global, nil
}
