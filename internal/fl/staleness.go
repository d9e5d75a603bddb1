package fl

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// The staleness weight-function names accepted by StalenessConfig.Func,
// ParseAgg specs and the CLIs' -stale-func flag.
const (
	StaleFuncPoly  = "poly"  // (s+1)^(−a), Xie et al.'s polynomial discount
	StaleFuncExp   = "exp"   // e^(−a·s)
	StaleFuncConst = "const" // 1 — no discount
	StaleFuncHinge = "hinge" // 1 up to Threshold, then 1/(a·(s−Threshold)+1)
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
	// Threshold is hinge's flat region: staleness up to it is not
	// discounted at all.
	Threshold int
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
		return math.Exp(-a * s)
	case StaleFuncConst:
		return 1
	case StaleFuncHinge:
		if s <= float64(sc.Threshold) {
			return 1
		}
		return 1 / (a*(s-float64(sc.Threshold)) + 1)
	default: // "" and StaleFuncPoly
		return math.Pow(s+1, -a)
	}
}

func validStaleFunc(name string) bool {
	for _, f := range StaleFuncs {
		if name == f {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Aggregation specs

// ParseAgg resolves an aggregation spec to a fresh UpdateRule — the single
// parse path behind fedsim's -agg, fedserver's -agg and the experiments'
// cell specs. A spec is a registry rule name optionally followed by
// colon-separated staleness parameters:
//
//	rule[:func[:alpha[:threshold]]]
//
// e.g. "avg", "staleness:poly", "fedasync:exp:0.3", "asyncsgd:hinge:0.5:4".
// Empty parameter fields (and omitted ones) inherit RunConfig.Staleness at
// Init time; rules outside the async family reject parameters.
func ParseAgg(spec string) (UpdateRule, error) {
	fields := strings.Split(spec, ":")
	fac, ok := UpdateRules[fields[0]]
	if !ok {
		return nil, fmt.Errorf("unknown update rule %q (have %v)", fields[0], slices.Sorted(maps.Keys(UpdateRules)))
	}
	rule, err := fac(fields[1:])
	if err != nil {
		return nil, fmt.Errorf("agg spec %q: %w", spec, err)
	}
	return rule, nil
}

// zeroArg adapts a parameterless rule constructor to the registry's
// parameterized shape, rejecting any spec arguments.
func zeroArg(name string, fn func() UpdateRule) func([]string) (UpdateRule, error) {
	return func(args []string) (UpdateRule, error) {
		if len(args) > 0 {
			return nil, fmt.Errorf("rule %q takes no parameters", name)
		}
		return fn(), nil
	}
}

// stalenessSpec is a partial StalenessConfig parsed from an agg spec's
// arguments. Only explicitly given fields override the run-level
// RunConfig.Staleness at Init (an explicit alpha of 0 overrides: the spec
// says exactly what it means, no sentinel needed).
type stalenessSpec struct {
	fn        string
	alpha     float64
	threshold int
	hasAlpha  bool
	hasThresh bool
}

func parseStalenessSpec(args []string) (stalenessSpec, error) {
	var s stalenessSpec
	if len(args) > 3 {
		return s, fmt.Errorf("want at most func:alpha:threshold, got %d parameters", len(args))
	}
	if len(args) > 0 && args[0] != "" {
		if !validStaleFunc(args[0]) {
			return s, fmt.Errorf("unknown weight function %q (have %v)", args[0], StaleFuncs)
		}
		s.fn = args[0]
	}
	if len(args) > 1 && args[1] != "" {
		v, err := strconv.ParseFloat(args[1], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return s, fmt.Errorf("bad staleness alpha %q", args[1])
		}
		s.alpha, s.hasAlpha = v, true
	}
	if len(args) > 2 && args[2] != "" {
		n, err := strconv.Atoi(args[2])
		if err != nil || n < 0 {
			return s, fmt.Errorf("bad staleness threshold %q", args[2])
		}
		s.threshold, s.hasThresh = n, true
	}
	return s, nil
}

// resolve overlays the spec's explicit fields on the run-level config.
func (s stalenessSpec) resolve(cfg StalenessConfig) StalenessConfig {
	if s.fn != "" {
		cfg.Func = s.fn
	}
	if s.hasAlpha {
		cfg.Alpha = s.alpha
	}
	if s.hasThresh {
		cfg.Threshold = s.threshold
	}
	if cfg.Func == "" {
		cfg.Func = StaleFuncPoly
	}
	return cfg
}

// ---------------------------------------------------------------------------
// asyncState is what the async family's rules share: one model vector, the
// server blend weight α and the resolved staleness discount g.

type asyncState struct {
	modelState
	alpha float64
	sc    StalenessConfig
	spec  stalenessSpec
}

func (a *asyncState) Init(rs *runState) error {
	a.global = rs.fab.InitialWeights()
	a.alpha = asyncAlpha
	a.sc = a.spec.resolve(rs.cfg.Staleness)
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
// its OLDEST member's download (the batch anchor, Fold.StartRound),
// "fedasync" each update from its OWN (core.ClientUpdate.StartRound). On a
// fold of one (client pacing) they are identical; under fedbuff buffering
// (K > 1) the per-update anchor discounts each buffered update individually
// instead of dragging fresh members down to the batch's most stale one.

type stalenessRule struct {
	asyncState
	perUpdate bool
}

func (r *stalenessRule) Fold(f Fold) ([]float64, error) {
	if len(f.Updates) == 0 {
		return nil, fmt.Errorf("staleness fold with no client updates")
	}
	start := f.StartRound()
	for _, u := range f.Updates {
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

func (r *asyncSGDRule) Fold(f Fold) ([]float64, error) {
	if len(f.Updates) == 0 {
		return nil, fmt.Errorf("asyncsgd fold with no client updates")
	}
	tensor.Zero(r.delta)
	for _, u := range f.Updates {
		if len(u.Weights) != len(r.global) {
			return nil, fmt.Errorf("asyncsgd fold: update has %d weights, want %d", len(u.Weights), len(r.global))
		}
		g := r.weight(u.StartRound)
		for i, w := range u.Weights {
			r.delta[i] += g * (w - r.global[i])
		}
	}
	tensor.Axpy(r.alpha/float64(len(f.Updates)), r.delta, r.global)
	r.version++
	return r.global, nil
}
