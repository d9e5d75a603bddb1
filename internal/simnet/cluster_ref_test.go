package simnet

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/robust"
)

// eagerClient is one client as the pre-lazy construction held it: its
// runtime together with the attributes a lazy runtime leaves to the
// population (link speeds and attack role).
type eagerClient struct {
	*ClientRuntime
	upBW, downBW float64
	attack       robust.Attack
}

// newClusterEager is the pre-lazy construction, byte-for-byte: every
// client's runtime built up front, every draw in its original order. It exists as the specification the lazy
// Population is tested against (TestPopulationMatchesEagerCluster) — if
// the two ever disagree, the lazy derivation broke the RNG contract.
func newClusterEager(cfg ClusterConfig) ([]eagerClient, error) {
	if cfg.NumClients <= 0 {
		return nil, fmt.Errorf("simnet: NumClients must be positive")
	}
	parts := cfg.PartSizes
	if len(parts) == 0 {
		parts = evenSplit(cfg.NumClients, len(delayRanges))
	}
	if len(parts) != len(delayRanges) {
		return nil, fmt.Errorf("simnet: %d part sizes for %d delay ranges", len(parts), len(delayRanges))
	}
	total := 0
	for _, p := range parts {
		total += p
	}
	if total != cfg.NumClients {
		return nil, fmt.Errorf("simnet: part sizes sum to %d, want %d", total, cfg.NumClients)
	}
	if cfg.NumUnstable > cfg.NumClients {
		return nil, fmt.Errorf("simnet: more unstable clients than clients")
	}
	secPerBatch := cfg.SecPerBatch
	if secPerBatch <= 0 {
		secPerBatch = 0.05
	}
	dropHorizon := cfg.DropHorizon
	if dropHorizon <= 0 {
		dropHorizon = 1000
	}

	root := rng.New(cfg.Seed)
	order := make([]int, cfg.NumClients)
	root.SplitLabeled(1).PermInto(order)

	cl := make([]eagerClient, cfg.NumClients)
	idx := 0
	for part, size := range parts {
		for j := 0; j < size; j++ {
			id := order[idx]
			idx++
			cr := root.SplitLabeled(uint64(1000 + id))
			speed := 0.7 + 0.6*cr.Float64() // persistent ±30% factor
			dr := cr.SplitLabeled(7)
			cl[id] = eagerClient{
				ClientRuntime: &ClientRuntime{
					DelayLo:     delayRanges[part][0],
					DelayHi:     delayRanges[part][1],
					SecPerBatch: secPerBatch * speed,
					DropAt:      inf,
					delayRNG:    *dr,
				},
				upBW:   cfg.UpBW,
				downBW: cfg.DownBW,
			}
		}
	}
	// Unstable clients: uniform choice, uniform drop times.
	ur := root.SplitLabeled(2)
	for _, id := range ur.Choose(cfg.NumClients, cfg.NumUnstable) {
		cl[id].DropAt = ur.Uniform(0, dropHorizon)
	}
	if cfg.Behavior.enabled() {
		if err := applyBehavior(cl, cfg); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// applyBehavior decorates the built population with dynamic behavior. It
// draws from streams labeled disjointly from everything the static
// construction used, so the static population (parts, speeds, delays, drop times) is unchanged.
func applyBehavior(cl []eagerClient, cfg ClusterConfig) error {
	b := cfg.Behavior.withDefaults()
	root := rng.New(cfg.Seed)
	pop := root.SplitLabeled(behaviorPopLabel)
	n := len(cl)

	if b.DriftMag > 0 {
		for id, c := range cl {
			cr := root.SplitLabeled(uint64(1000 + id))
			c.drift = newDriftTrack(cr.SplitLabeled(clientDriftLabel), b)
		}
	}
	if b.ChurnFrac > 0 {
		for _, id := range pop.Choose(n, fracCount(b.ChurnFrac, n)) {
			cr := root.SplitLabeled(uint64(1000 + id))
			cl[id].churn = newChurnTrack(cr.SplitLabeled(clientChurnLabel), b)
		}
	}
	if b.attackOn() {
		kind, err := robust.ParseKind(b.AttackKind)
		if err != nil {
			return err
		}
		var ids []int
		if b.AttackTail {
			ids = tailClients(cl, fracCount(b.AttackFrac, n))
		} else {
			ids = AttackTargets(cfg.Seed, n, b.AttackFrac)
		}
		for _, id := range ids {
			cl[id].attack = robust.Attack{Kind: kind, Scale: b.AttackScale}
		}
	}
	return nil
}

// tailClients picks the k slowest clients — largest part wins, ties to the
// lower id — giving the deterministic latency-correlated attacker set.
func tailClients(clients []eagerClient, k int) []int {
	ids := make([]int, len(clients))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		pa, pb := partOf(clients[ids[a]].ClientRuntime), partOf(clients[ids[b]].ClientRuntime)
		if pa != pb {
			return pa > pb
		}
		return ids[a] < ids[b]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

// partOf is the delay part a runtime's delay range came from.
func partOf(c *ClientRuntime) int {
	for part, r := range delayRanges {
		if r == [2]float64{c.DelayLo, c.DelayHi} {
			return part
		}
	}
	return -1
}
