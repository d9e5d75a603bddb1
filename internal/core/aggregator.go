// Package core implements FedAT's server-side aggregation state machine
// (Algorithm 2): one model per tier updated synchronously from that tier's
// clients, update counters per tier, and the cross-tier weighted average of
// Eq. 5 that produces the global model.
//
// The aggregator is deliberately independent of any clock or transport: it
// is the server state behind internal/fl's avg and eq5 update rules, and
// the method engine drives it identically on the simulated fabric and the
// live TCP fabric, so simulation results reflect the deployable system.
package core

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// Aggregator is FedAT's server state. It is safe for concurrent use,
// though the method engine serializes its folds through the fabric's run
// loop — the paper likewise serializes aggregation through the server
// (Figure 1's aggregation box).
type Aggregator struct {
	mu sync.Mutex

	m        int
	weighted bool // Eq. 5 weighting; false = uniform (the Figure 6 ablation)

	tierW  [][]float64 // w_tier m, initialized to w0 (Algorithm 2)
	counts []int       // T_tier m
	total  int         // T = Σ counts
	global []float64   // cached weighted average

	wScratch []float64 // reused Eq. 5 weight vector for the fold path
}

// NewAggregator builds the server state for m tiers starting from the
// initial global weights w0.
func NewAggregator(m int, w0 []float64, weighted bool) (*Aggregator, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: need at least one tier")
	}
	if len(w0) == 0 {
		return nil, fmt.Errorf("core: empty initial weights")
	}
	a := &Aggregator{
		m:        m,
		weighted: weighted,
		tierW:    make([][]float64, m),
		counts:   make([]int, m),
		global:   tensor.Copy(w0),
	}
	for i := range a.tierW {
		a.tierW[i] = tensor.Copy(w0)
	}
	return a, nil
}

// Rounds returns t, the number of global updates so far.
func (a *Aggregator) Rounds() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// GlobalRef returns the live global-model buffer without copying. The
// buffer is rewritten in place by the next UpdateTierRef, so the reference
// is read-only and valid only until the next fold — callers that retain it
// across folds must copy.
func (a *Aggregator) GlobalRef() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.global
}

// Rebase replaces every tier model and the cached global with w — the
// state reset a hierarchical edge performs when it adopts the cloud's
// merged model, mirroring how Algorithm 2 starts every tier from one
// shared w0. Update counters are deliberately kept: Eq. 5's weighting
// measures each tier's update activity, which adopting a merged model does
// not erase. Returns the new global reference (read-only, valid until the
// next fold).
func (a *Aggregator) Rebase(w []float64) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(w) != len(a.global) {
		panic(fmt.Sprintf("core: Rebase with %d weights, state has %d", len(w), len(a.global)))
	}
	for i := range a.tierW {
		copy(a.tierW[i], w)
	}
	copy(a.global, w)
	return a.global
}

// tierWeightsIntoLocked writes the Eq. 5 aggregation weights that the NEXT
// global average will use into w: weight of tier m is proportional to T_tier(M+1−m)
// (1-indexed in the paper; mirrored index here), with add-one smoothing —
// weight_m = (T_tier(M+1−m)+1)/(T+M).
//
// The smoothing is a deliberate, documented deviation from the literal
// Eq. 5: taken verbatim, the formula assigns weight T_tierM/T = 0 to the
// only tier that HAS updated during the early rounds (its mirror partner
// has no updates yet), collapsing the global model back to w0. Add-one
// smoothing preserves the paper's ordering property (slower tiers weigh
// more), keeps Σ weights = 1, reduces to exactly 1 for a single tier
// (FedAT = FedAvg, §4.1), and converges to the literal Eq. 5 as T grows.
// In uniform mode every tier weighs 1/M (the Figure 6 ablation).
func (a *Aggregator) tierWeightsIntoLocked(w []float64) {
	if !a.weighted {
		for i := range w {
			w[i] = 1 / float64(a.m)
		}
		return
	}
	den := float64(a.total + a.m)
	for m := 0; m < a.m; m++ {
		// Paper (1-indexed): weight of tier m mirrors T_tier(M+1−m).
		// 0-indexed: counts[M−1−m], plus the smoothing pseudo-count.
		w[m] = (float64(a.counts[a.m-1-m]) + 1) / den
	}
}

// ClientUpdate is one client's contribution to a tier round.
type ClientUpdate struct {
	Weights []float64
	N       int // n_k, the client's local sample count
	// Client identifies the originating client for update rules that keep
	// per-client server state (ASO-Fed's model copies). The tier aggregator
	// itself does not read it.
	Client int
	// StartRound is the global update count when this client downloaded the
	// snapshot it trained from — the per-update staleness anchor for the
	// asynchronous update rules. Synchronous cohorts share one anchor;
	// buffered arrivals (fedbuff) each carry their own. The tier aggregator
	// itself does not read it.
	StartRound int
}

// UpdateTierRef performs one tier-m round (the body of Algorithm 2): the
// clients' models are n_k-weighted into w_tier m, the counters advance, and
// the global model is recomputed as the cross-tier weighted average. It
// returns the aggregator's live global buffer, with GlobalRef's
// read-only-until-next-fold contract.
func (a *Aggregator) UpdateTierRef(m int, updates []ClientUpdate) ([]float64, error) {
	if m < 0 || m >= a.m {
		return nil, fmt.Errorf("core: tier %d out of range [0,%d)", m, a.m)
	}
	if len(updates) == 0 {
		return nil, fmt.Errorf("core: tier %d round with no client updates", m)
	}
	nc := 0
	for _, u := range updates {
		if len(u.Weights) != len(a.global) {
			return nil, fmt.Errorf("core: client update has %d weights, want %d", len(u.Weights), len(a.global))
		}
		if u.N <= 0 {
			return nil, fmt.Errorf("core: client update with non-positive sample count %d", u.N)
		}
		nc += u.N
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	// w_tier m = Σ n_k/N_c · w_k
	dst := a.tierW[m]
	tensor.Zero(dst)
	for _, u := range updates {
		tensor.Axpy(float64(u.N)/float64(nc), u.Weights, dst)
	}
	a.counts[m]++
	a.total++
	a.recomputeGlobalLocked()
	return a.global, nil
}

func (a *Aggregator) recomputeGlobalLocked() {
	if len(a.wScratch) != a.m {
		a.wScratch = make([]float64, a.m)
	}
	a.tierWeightsIntoLocked(a.wScratch)
	tensor.WeightedSumInto(a.global, a.wScratch, a.tierW)
}
