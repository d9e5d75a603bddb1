package simnet

import (
	"math"
	"testing"
)

// SpeedMultiplier reports the drift multiplier in effect at time t (1 for
// clients without drift).
func (c *ClientRuntime) SpeedMultiplier(t float64) float64 {
	if c.drift == nil {
		return 1
	}
	return c.drift.multAt(t)
}

// behaviorPopulation is a 20-client population under b.
func behaviorPopulation(t *testing.T, b BehaviorConfig) *Population {
	t.Helper()
	pop, err := NewPopulation(ClusterConfig{
		NumClients: 20, SecPerBatch: 0.1, Seed: 11, Behavior: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// behaviorClients materializes every client of behaviorPopulation(b).
func behaviorClients(t *testing.T, b BehaviorConfig) []*ClientRuntime {
	t.Helper()
	return materializeAll(behaviorPopulation(t, b))
}

// TestBehaviorDisabledIsStatic: the zero BehaviorConfig must leave the
// population bit-identical to the static model — same availability, same
// compute arithmetic at any time. An attack kind at frac 0 is as disabled.
func TestBehaviorDisabledIsStatic(t *testing.T) {
	if (BehaviorConfig{AttackKind: "scale"}).enabled() {
		t.Fatal("frac 0 must not enable the behavior model")
	}
	cl := behaviorClients(t, BehaviorConfig{})
	for id, c := range cl {
		if c.drift != nil || c.churn != nil {
			t.Fatalf("client %d has dynamic state without behavior config", id)
		}
		for _, at := range []float64{0, 17.3, 5000} {
			if got, want := c.ComputeTimeAt(12, at), c.computeTime(12); got != want {
				t.Fatalf("client %d: ComputeTimeAt(12, %v)=%v, want %v", id, at, got, want)
			}
			if c.available(at) != (at < c.DropAt) {
				t.Fatalf("client %d: availability diverged from the static rule at %v", id, at)
			}
			want := at
			if at >= c.DropAt {
				want = inf
			}
			if got := c.NextOnline(at); got != want {
				t.Fatalf("client %d: NextOnline(%v)=%v, want %v", id, at, got, want)
			}
		}
	}
}

// TestDriftDeterministicAndClamped: the drift walk is identical across two
// same-seed clusters, pure under out-of-order queries, and clamped.
func TestDriftDeterministicAndClamped(t *testing.T) {
	b := BehaviorConfig{DriftMag: 0.5, DriftInterval: 10, DriftClamp: 3}
	a := behaviorClients(t, b)
	c := behaviorClients(t, b)
	changed := false
	for id := range a {
		ra, rc := a[id], c[id]
		// Query rc far ahead first: lookups must stay pure under any order.
		_ = rc.SpeedMultiplier(990)
		for _, at := range []float64{0, 25, 990, 130} {
			ma, mc := ra.SpeedMultiplier(at), rc.SpeedMultiplier(at)
			if ma != mc {
				t.Fatalf("client %d: drift multiplier diverged at t=%v: %v vs %v", id, at, ma, mc)
			}
			if ma < 1/3.0-1e-12 || ma > 3+1e-12 {
				t.Fatalf("client %d: multiplier %v escaped the clamp", id, ma)
			}
			if at > 0 && ma != 1 {
				changed = true
			}
		}
		if m := ra.SpeedMultiplier(0); m != 1 {
			t.Fatalf("client %d: nominal speed at t=0 is %v, want 1", id, m)
		}
	}
	if !changed {
		t.Fatal("no client's speed ever drifted")
	}
}

// TestChurnWindows: churned clients go offline and come back; NextOnline
// lands on an available instant; non-churned clients are unaffected.
func TestChurnWindows(t *testing.T) {
	b := BehaviorConfig{ChurnFrac: 0.5, ChurnOn: [2]float64{50, 100}, ChurnOff: [2]float64{20, 40}}
	cl := behaviorClients(t, b)
	churned, sawOffline, sawRejoin := 0, false, false
	for id, c := range cl {
		if c.churn == nil {
			continue
		}
		churned++
		for at := 0.0; at < 2000; at += 7 {
			if c.available(at) {
				continue
			}
			sawOffline = true
			back := c.NextOnline(at)
			if math.IsInf(back, 1) {
				continue // permanent drop can coincide with a window
			}
			if back <= at {
				t.Fatalf("client %d: NextOnline(%v)=%v did not advance", id, at, back)
			}
			if !c.available(back) {
				t.Fatalf("client %d: not available at its own NextOnline time %v", id, back)
			}
			sawRejoin = true
		}
	}
	if churned != 10 {
		t.Fatalf("churn assigned to %d clients, want 10 of 20", churned)
	}
	if !sawOffline || !sawRejoin {
		t.Fatalf("churn produced no observable window (offline=%v rejoin=%v)", sawOffline, sawRejoin)
	}
}

// TestOfflineWithin: a churn window wholly inside a span disrupts it even
// though both endpoints are online; spans clear of windows are undisturbed;
// without churn the check reduces to the endpoint rule.
func TestOfflineWithin(t *testing.T) {
	b := BehaviorConfig{ChurnFrac: 1, ChurnOn: [2]float64{50, 100}, ChurnOff: [2]float64{10, 20}}
	cl := behaviorClients(t, b)
	checked := false
	for id, c := range cl {
		if c.churn == nil || len(c.churn.offline) == 0 {
			c.available(500) // force window generation
		}
		if len(c.churn.offline) == 0 {
			continue
		}
		w := c.churn.offline[0]
		if w[1]+1 >= c.DropAt {
			continue // window truncated by a permanent drop; skip
		}
		checked = true
		// Span strictly containing the window: disrupted.
		if !c.OfflineWithin(w[0]-1, w[1]+1) {
			t.Fatalf("client %d: window [%v,%v) inside span not detected", id, w[0], w[1])
		}
		// Span entirely before the first window: clean.
		if c.OfflineWithin(0, w[0]-1) {
			t.Fatalf("client %d: clean span flagged as disrupted", id)
		}
	}
	if !checked {
		t.Fatal("no churn window available to test")
	}

	// No churn: OfflineWithin is exactly the endpoint check.
	static := behaviorClients(t, BehaviorConfig{})
	for id, c := range static {
		for _, end := range []float64{10, 5000} {
			if got, want := c.OfflineWithin(0, end), !c.available(end); got != want {
				t.Fatalf("client %d: static OfflineWithin(0,%v)=%v, want %v", id, end, got, want)
			}
		}
	}
}

// TestFracClamped: behavior fractions above 1 (a CLI typo) mean "everyone",
// not a Choose panic.
func TestFracClamped(t *testing.T) {
	cl := behaviorClients(t, BehaviorConfig{ChurnFrac: 1.5})
	churned := 0
	for _, c := range cl {
		if c.churn != nil {
			churned++
		}
	}
	if churned != len(cl) {
		t.Fatalf("a fraction above 1 churned %d/%d clients; want all", churned, len(cl))
	}
}

// TestAttackSelection: the attacker set is deterministic, sized by
// fracCount, independent of the other regimes, and latency-correlated
// under AttackTail.
func TestAttackSelection(t *testing.T) {
	b := BehaviorConfig{AttackKind: "scale", AttackFrac: 0.3, AttackScale: 5}
	a := behaviorPopulation(t, b)
	c := behaviorPopulation(t, b)
	var attackers []int
	for i := range a.NumClients() {
		if a.Attack(i).Active() != c.Attack(i).Active() {
			t.Fatalf("attacker set differs between same-seed clusters at %d", i)
		}
		if atk := a.Attack(i); atk.Active() {
			attackers = append(attackers, i)
			if atk.Kind.String() != "scale" || atk.Scale != 5 {
				t.Fatalf("client %d attack = %+v", i, atk)
			}
		}
	}
	if len(attackers) != 6 { // fracCount(0.3, 20)
		t.Fatalf("%d attackers, want 6 (got %v)", len(attackers), attackers)
	}
	// AttackTargets mirrors the in-cluster selection for the live fabric.
	want := AttackTargets(11, 20, 0.3)
	if len(want) != len(attackers) {
		t.Fatalf("AttackTargets = %v, cluster picked %v", want, attackers)
	}
	picked := map[int]bool{}
	for _, id := range want {
		picked[id] = true
	}
	for _, id := range attackers {
		if !picked[id] {
			t.Fatalf("cluster attacker %d not in AttackTargets %v", id, want)
		}
	}
}

// TestAttackIndependentOfChurn: switching attacks on must not move churn
// membership (separate population labels), and AttackFrac=0 or kind "none"
// leaves everyone honest.
func TestAttackIndependentOfChurn(t *testing.T) {
	churnOnly := behaviorClients(t, BehaviorConfig{ChurnFrac: 0.25})
	both := behaviorClients(t, BehaviorConfig{ChurnFrac: 0.25, AttackKind: "labelflip", AttackFrac: 0.4})
	for i := range churnOnly {
		if (churnOnly[i].churn == nil) != (both[i].churn == nil) {
			t.Fatalf("churn membership moved when attacks switched on (client %d)", i)
		}
	}
	for _, b := range []BehaviorConfig{
		{ChurnFrac: 0.25, AttackKind: "labelflip"},
		{ChurnFrac: 0.25, AttackFrac: 0.4},
		{ChurnFrac: 0.25, AttackKind: "none", AttackFrac: 0.4},
	} {
		pop := behaviorPopulation(t, b)
		for i := range pop.NumClients() {
			if pop.Attack(i).Active() {
				t.Fatalf("client %d attacks under %+v", i, b)
			}
		}
	}
}

// TestAttackTailPicksSlowest: AttackTail marks exactly the highest-Part
// clients, ties to lower ids, with no randomness.
func TestAttackTailPicksSlowest(t *testing.T) {
	pop := behaviorPopulation(t, BehaviorConfig{AttackKind: "freeride", AttackFrac: 0.2, AttackTail: true})
	minAttackerPart := math.MaxInt
	maxHonestPart := -1
	count := 0
	for id := range pop.NumClients() {
		if pop.Attack(id).Active() {
			count++
			minAttackerPart = min(minAttackerPart, pop.Part(id))
		} else {
			maxHonestPart = max(maxHonestPart, pop.Part(id))
		}
	}
	if count != 4 { // fracCount(0.2, 20)
		t.Fatalf("%d tail attackers, want 4", count)
	}
	if minAttackerPart < maxHonestPart {
		t.Fatalf("tail selection not latency-correlated: attacker part %d < honest part %d",
			minAttackerPart, maxHonestPart)
	}
}

// TestAttackUnknownKind: a bad kind surfaces as a NewPopulation error.
func TestAttackUnknownKind(t *testing.T) {
	_, err := NewPopulation(ClusterConfig{
		NumClients: 5, Seed: 1,
		Behavior: BehaviorConfig{AttackKind: "bogus", AttackFrac: 0.5},
	})
	if err == nil {
		t.Fatal("unknown attack kind should fail cluster construction")
	}
}
