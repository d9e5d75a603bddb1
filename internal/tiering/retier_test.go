package tiering

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// Observed reports how many distinct clients have at least one observation.
func (tr *Tracker) Observed() int {
	n := 0
	for _, seen := range tr.seen {
		if seen {
			n++
		}
	}
	return n
}

// staticLat builds n latencies in two clear groups: ids < n/2 fast (around
// lo), the rest slow (around hi).
func twoGroups(n int, lo, hi float64) []float64 {
	lat := make([]float64, n)
	for i := range lat {
		if i < n/2 {
			lat[i] = lo + float64(i)*0.01
		} else {
			lat[i] = hi + float64(i)*0.01
		}
	}
	return lat
}

func mustPartition(t *testing.T, lat []float64, m int) *Tiers {
	t.Helper()
	tiers, err := Partition(lat, m)
	if err != nil {
		t.Fatal(err)
	}
	return tiers
}

// TestRetierNoObservationsKeepsProfile: with nothing observed, Retier is a
// no-op returning the previous partition itself.
func TestRetierNoObservationsKeepsProfile(t *testing.T) {
	prev := mustPartition(t, twoGroups(10, 1, 10), 2)
	smoothed := make([]float64, 10)
	for i := range smoothed {
		smoothed[i] = math.NaN()
	}
	next, moved, err := Retier(smoothed, prev, RetierOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if next != prev || moved != 0 {
		t.Fatalf("expected identity no-op, got moved=%d next=%p prev=%p", moved, next, prev)
	}
}

// TestRetierStableWhenLatenciesMatchProfile: observations that agree with
// the profile move nobody.
func TestRetierStableWhenLatenciesMatchProfile(t *testing.T) {
	lat := twoGroups(10, 1, 10)
	prev := mustPartition(t, lat, 2)
	next, moved, err := Retier(lat, prev, RetierOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 || next != prev {
		t.Fatalf("matching observations migrated %d clients", moved)
	}
}

// TestRetierHysteresisPreventsOscillation: a client whose noisy smoothed
// latency wobbles within the margin around the boundary never changes tier,
// no matter how many retier passes run.
func TestRetierHysteresisPreventsOscillation(t *testing.T) {
	lat := twoGroups(10, 1, 10)
	prev := mustPartition(t, lat, 2)
	// Boundary sits between 1.x and 10.x; put client 4 (fast tier) right at
	// the boundary neighborhood and wobble it ±8% (inside the 15% margin).
	tr := NewTracker(10, 0.5)
	for i, v := range lat {
		tr.Observe(i, v)
	}
	boundary := (lat[4] + lat[5]) / 2
	r := rng.New(3)
	cur := prev
	for pass := 0; pass < 50; pass++ {
		tr.Observe(4, boundary*r.Uniform(0.92, 1.08))
		next, moved, err := Retier(tr.Estimates(), cur, RetierOpts{Margin: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		if moved != 0 {
			t.Fatalf("pass %d: noisy boundary client migrated (%d moved)", pass, moved)
		}
		cur = next
	}
	if cur.Assignment[4] != prev.Assignment[4] {
		t.Fatal("client 4 ended in a different tier")
	}
}

// TestRetierStepChangeMigrates: a fast-tier client that genuinely becomes
// 10x slower crosses the boundary within a few smoothed observations — and
// never bounces back while it stays slow.
func TestRetierStepChangeMigrates(t *testing.T) {
	lat := twoGroups(10, 1, 10)
	prev := mustPartition(t, lat, 2)
	if prev.Assignment[2] != 0 {
		t.Fatal("setup: client 2 should start in the fast tier")
	}
	tr := NewTracker(10, 0.5)
	for i, v := range lat {
		tr.Observe(i, v)
	}
	cur := prev
	migratedAt := -1
	for pass := 1; pass <= 10; pass++ {
		tr.Observe(2, 10.5) // the step change: now as slow as the slow group
		next, _, err := Retier(tr.Estimates(), cur, RetierOpts{Margin: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		if cur.Assignment[2] == 1 && migratedAt < 0 {
			migratedAt = pass
		}
	}
	// est_k = 10.5 - (10.5-1)·0.5^k crosses boundary*1.15 ≈ 6.4 at k=2.
	if migratedAt < 0 {
		t.Fatal("step-change client never migrated to the slow tier")
	}
	if migratedAt > 3 {
		t.Fatalf("step-change client took %d observations to migrate, want <= 3", migratedAt)
	}
	if cur.Assignment[2] != 1 {
		t.Fatal("client 2 did not stay in the slow tier")
	}
	membersMatchAssignment(t, cur)
}

// TestRetierMigrationAtScale: over 10k clients in five tiers, the fastest
// hundred of tier 0 turn slow and the slowest hundred of tier 4 turn fast.
// Each walks one tier, nobody else moves, and the new member lists list
// every client once, in the tier its assignment names, in id order.
func TestRetierMigrationAtScale(t *testing.T) {
	const n, m, walkers = 10_000, 5, 100
	lat := make([]float64, n)
	for i := range lat {
		lat[i] = 1 + float64(i)*0.001
	}
	prev := mustPartition(t, lat, m)
	smoothed := slices.Clone(lat)
	for i := range walkers {
		smoothed[i] = 100
		smoothed[n-1-i] = 0.01
	}
	next, moved, err := Retier(smoothed, prev, RetierOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2*walkers {
		t.Fatalf("%d clients moved, want %d", moved, 2*walkers)
	}
	for i := range walkers {
		if next.Assignment[i] != 1 || next.Assignment[n-1-i] != m-2 {
			t.Fatalf("walkers %d and %d are in tiers %d and %d, want 1 and %d", i, n-1-i, next.Assignment[i], next.Assignment[n-1-i], m-2)
		}
	}
	membersMatchAssignment(t, next)
	for tier, members := range next.Members {
		if !slices.IsSorted(members) {
			t.Fatalf("tier %d's members are not in id order", tier)
		}
	}
}

// membersMatchAssignment requires every client in exactly one member list,
// the one its Assignment names, and every list clipped to its length.
func membersMatchAssignment(t *testing.T, tiers *Tiers) {
	t.Helper()
	seen := make([]bool, len(tiers.Assignment))
	for tier, members := range tiers.Members {
		if cap(members) != len(members) {
			t.Fatalf("tier %d: len %d cap %d, want a clipped view", tier, len(members), cap(members))
		}
		for _, id := range members {
			if seen[id] || int(tiers.Assignment[id]) != tier {
				t.Fatalf("member list / assignment mismatch for client %d", id)
			}
			seen[id] = true
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("client %d is in no member list", i)
	}
}

// TestRetierUnobservedClientsAnchored: a client with no observations keeps
// its tier even when everyone around it moves.
func TestRetierUnobservedClientsAnchored(t *testing.T) {
	lat := twoGroups(10, 1, 10)
	prev := mustPartition(t, lat, 2)
	smoothed := make([]float64, 10)
	for i := range smoothed {
		// Invert the world: fast clients now slow and vice versa...
		if prev.Assignment[i] == 0 {
			smoothed[i] = 20
		} else {
			smoothed[i] = 1
		}
	}
	smoothed[0] = math.NaN() // ...except client 0, unobserved
	next, moved, err := Retier(smoothed, prev, RetierOpts{Margin: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if next.Assignment[0] != prev.Assignment[0] {
		t.Fatal("unobserved client migrated without evidence")
	}
	if moved == 0 {
		t.Fatal("inverted observations moved nobody")
	}
}

// TestRetierNeverEmptiesATier: even when every observed client's latency
// collapses to one side, all tiers stay populated (the fallback re-split).
func TestRetierNeverEmptiesATier(t *testing.T) {
	lat := twoGroups(10, 1, 10)
	prev := mustPartition(t, lat, 2)
	smoothed := make([]float64, 10)
	for i := range smoothed {
		smoothed[i] = 1 + float64(i)*0.001 // everyone fast now
	}
	next, _, err := Retier(smoothed, prev, RetierOpts{Margin: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for tier, members := range next.Members {
		if len(members) == 0 {
			t.Fatalf("tier %d emptied", tier)
		}
	}
}

// TestTrackerEWMA: first observation seeds the estimate, later ones blend
// with alpha, ids out of range are ignored.
func TestTrackerEWMA(t *testing.T) {
	tr := NewTracker(3, 0.25)
	tr.Observe(1, 8)
	tr.Observe(1, 4) // 8 + 0.25·(4-8) = 7
	tr.Observe(-1, 99)
	tr.Observe(3, 99)
	est := tr.Estimates()
	if !math.IsNaN(est[0]) || !math.IsNaN(est[2]) {
		t.Fatalf("unobserved clients should be NaN: %v", est)
	}
	if est[1] != 7 {
		t.Fatalf("EWMA estimate %v, want 7", est[1])
	}
	if tr.Observed() != 1 {
		t.Fatalf("Observed()=%d, want 1", tr.Observed())
	}
}
