package core

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func newAgg(t *testing.T, m int, w0 []float64, weighted bool) *Aggregator {
	t.Helper()
	a, err := NewAggregator(m, w0, weighted)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// tierWeights reads the Eq. 5 weights the next fold will use.
func tierWeights(a *Aggregator) []float64 {
	w := make([]float64, a.m)
	a.tierWeightsIntoLocked(w)
	return w
}

func TestInitialGlobalIsW0(t *testing.T) {
	w0 := []float64{1, 2, 3}
	a := newAgg(t, 3, w0, true)
	g := a.GlobalRef()
	for i := range w0 {
		if g[i] != w0[i] {
			t.Fatalf("initial global %v", g)
		}
	}
	if a.Rounds() != 0 {
		t.Fatal("rounds should start at 0")
	}
}

func TestTierWeightsSumToOne(t *testing.T) {
	f := func(c0, c1, c2 uint8) bool {
		a, _ := NewAggregator(3, []float64{1}, true)
		counts := []int{int(c0 % 20), int(c1 % 20), int(c2 % 20)}
		for m, n := range counts {
			for i := 0; i < n; i++ {
				if _, err := a.UpdateTierRef(m, []ClientUpdate{{Weights: []float64{1}, N: 1}}); err != nil {
					return false
				}
			}
		}
		w := tierWeights(a)
		sum := 0.0
		for _, v := range w {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEq5MirrorsCounts(t *testing.T) {
	// Paper Eq. 5 with add-one smoothing: tier m's weight is
	// (T_tier(M+1−m)+1)/(T+M). With counts (8, 1, 1), T=10, M=3:
	// tier 0 (fastest) ← (counts[2]+1)/13 = 2/13,
	// tier 2 (slowest) ← (counts[0]+1)/13 = 9/13.
	a := newAgg(t, 3, []float64{0}, true)
	counts := []int{8, 1, 1}
	for m, n := range counts {
		for i := 0; i < n; i++ {
			a.UpdateTierRef(m, []ClientUpdate{{Weights: []float64{0}, N: 1}})
		}
	}
	w := tierWeights(a)
	if math.Abs(w[0]-2.0/13) > 1e-12 || math.Abs(w[1]-2.0/13) > 1e-12 || math.Abs(w[2]-9.0/13) > 1e-12 {
		t.Fatalf("Eq.5 weights wrong: %v", w)
	}
}

func TestSlowTierGetsHigherWeightThanFastTier(t *testing.T) {
	// The heuristic's whole point: the frequently-updating fast tier must
	// NOT dominate the global model.
	a := newAgg(t, 2, []float64{0}, true)
	// tier 0 updates 9 times with weights 1, tier 1 once with weights -1
	for i := 0; i < 9; i++ {
		a.UpdateTierRef(0, []ClientUpdate{{Weights: []float64{1}, N: 1}})
	}
	a.UpdateTierRef(1, []ClientUpdate{{Weights: []float64{-1}, N: 1}})
	// smoothed: tier0 ← (counts[1]+1)/12 = 2/12, tier1 ← (counts[0]+1)/12 = 10/12
	g := a.GlobalRef()
	want := 2.0/12*1 + 10.0/12*(-1)
	if math.Abs(g[0]-want) > 1e-12 {
		t.Fatalf("global %v, want %v (slow tier should dominate)", g[0], want)
	}
}

func TestEarlyUpdateDoesNotCollapseToW0(t *testing.T) {
	// The corner case the smoothing exists for: after ONLY the fast tier
	// has updated, the literal Eq. 5 would weight that tier by
	// T_tierM/T = 0 and return exactly w0. The smoothed weights must let
	// the first real update move the global model.
	a := newAgg(t, 5, []float64{0}, true)
	g, err := a.UpdateTierRef(0, []ClientUpdate{{Weights: []float64{6}, N: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// weights = (1,1,1,1,2)/6 with tier 0 holding the trained model 6.
	if math.Abs(g[0]-1) > 1e-12 {
		t.Fatalf("first update produced global %v, want 1", g[0])
	}
}

func TestUniformModeIgnoresCounts(t *testing.T) {
	a := newAgg(t, 2, []float64{0}, false)
	for i := 0; i < 9; i++ {
		a.UpdateTierRef(0, []ClientUpdate{{Weights: []float64{1}, N: 1}})
	}
	a.UpdateTierRef(1, []ClientUpdate{{Weights: []float64{-1}, N: 1}})
	g := a.GlobalRef()
	if math.Abs(g[0]-0) > 1e-12 {
		t.Fatalf("uniform global %v, want 0", g[0])
	}
}

func TestIntraTierSampleWeighting(t *testing.T) {
	// Within a tier, clients aggregate n_k-weighted (Algorithm 2).
	a := newAgg(t, 1, []float64{0}, true)
	g, err := a.UpdateTierRef(0, []ClientUpdate{
		{Weights: []float64{1}, N: 30},
		{Weights: []float64{5}, N: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	// tier model = (30*1 + 10*5)/40 = 2; single tier → global = tier
	if math.Abs(g[0]-2) > 1e-12 {
		t.Fatalf("global %v, want 2", g[0])
	}
}

func TestSingleTierIsFedAvg(t *testing.T) {
	// §4.1: with one tier FedAT degenerates to FedAvg — the global model
	// is exactly the n_k-weighted client average each round.
	a := newAgg(t, 1, []float64{10, 10}, true)
	g, _ := a.UpdateTierRef(0, []ClientUpdate{
		{Weights: []float64{2, 4}, N: 1},
		{Weights: []float64{4, 8}, N: 1},
	})
	if g[0] != 3 || g[1] != 6 {
		t.Fatalf("single-tier global %v", g)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewAggregator(0, []float64{1}, true); err == nil {
		t.Fatal("zero tiers accepted")
	}
	if _, err := NewAggregator(2, nil, true); err == nil {
		t.Fatal("empty weights accepted")
	}
	a := newAgg(t, 2, []float64{1}, true)
	if _, err := a.UpdateTierRef(5, []ClientUpdate{{Weights: []float64{1}, N: 1}}); err == nil {
		t.Fatal("out-of-range tier accepted")
	}
	if _, err := a.UpdateTierRef(0, nil); err == nil {
		t.Fatal("empty round accepted")
	}
	if _, err := a.UpdateTierRef(0, []ClientUpdate{{Weights: []float64{1, 2}, N: 1}}); err == nil {
		t.Fatal("wrong weight length accepted")
	}
	if _, err := a.UpdateTierRef(0, []ClientUpdate{{Weights: []float64{1}, N: 0}}); err == nil {
		t.Fatal("zero sample count accepted")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	// Transport mode hits the aggregator from one goroutine per tier.
	a := newAgg(t, 4, make([]float64, 32), true)
	var wg sync.WaitGroup
	perTier := 50
	for m := 0; m < 4; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			w := make([]float64, 32)
			for i := range w {
				w[i] = float64(m)
			}
			for i := 0; i < perTier; i++ {
				if _, err := a.UpdateTierRef(m, []ClientUpdate{{Weights: w, N: 1}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(m)
	}
	wg.Wait()
	if a.Rounds() != 4*perTier {
		t.Fatalf("rounds %d, want %d", a.Rounds(), 4*perTier)
	}
	for m, c := range a.counts {
		if c != perTier {
			t.Fatalf("tier %d count %d", m, c)
		}
	}
	sum := 0.0
	for _, v := range tierWeights(a) {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum %v", sum)
	}
}
