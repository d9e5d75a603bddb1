package fl

import (
	"fmt"

	"repro/internal/robust"
)

// robustRule adapts the internal/robust aggregation kernels to the
// updateRule contract: each fold replaces the global model with the robust
// aggregate of the arrived cohort — coordinate-median, β-trimmed mean, or
// the Krum(f) winner. The rules are deliberately tier-agnostic: robustness
// comes from comparing a cohort's updates against each other, so whatever
// the pacer delivers folds as one cohort. A cohort of one degrades to that
// update (there is nothing to compare against) — wait-free client pacing
// wants the "fedbuff" pacer, which buffers K arrivals per fold exactly so
// the robust statistics see a real cohort.
//
// The kernels write into the rule's own global buffer and reuse a scratch,
// so folding retains nothing from the update buffers the engine recycles
// and allocates nothing in steady state (the PR 6 budgets).
type robustRule struct {
	modelState        // a rebased model is just the next cohort's snapshot
	kind       string // "median", "trimmed" or "krum"
	scratch    robust.FoldScratch
	vecs       [][]float64 // cohort view, reused across folds
}

func (r *robustRule) Init(rs *runState) error {
	r.global = rs.fab.InitialWeights()
	return nil
}

func (r *robustRule) Fold(f fold) ([]float64, error) {
	if len(f.Updates) == 0 {
		return nil, fmt.Errorf("%s fold with no client updates", r.kind)
	}
	r.vecs = r.vecs[:0]
	for _, u := range f.Updates {
		r.vecs = append(r.vecs, u.Weights)
	}
	var err error
	switch r.kind {
	case "median":
		err = r.scratch.Median(r.global, r.vecs)
	case "trimmed":
		err = r.scratch.TrimmedMean(r.global, r.vecs, trimBeta)
	case "krum":
		_, err = r.scratch.Krum(r.global, r.vecs, krumAdaptive)
	default:
		err = fmt.Errorf("unknown robust rule %q", r.kind)
	}
	if err != nil {
		return nil, err
	}
	r.version++
	return r.global, nil
}
