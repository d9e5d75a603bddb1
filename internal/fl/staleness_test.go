package fl

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// TestStalenessWeightFunctions pins each weight function against
// hand-computed values — these are the numbers the async rules and the
// adaptive-LR stage multiply by, so a drift here silently reweights every
// staleness run.
func TestStalenessWeightFunctions(t *testing.T) {
	cases := []struct {
		name string
		sc   StalenessConfig
		s    float64
		want float64
	}{
		{"poly fresh", StalenessConfig{Func: StaleFuncPoly, Alpha: 0.5}, 0, 1},
		{"poly a=0.5 s=3", StalenessConfig{Func: StaleFuncPoly, Alpha: 0.5}, 3, 0.5}, // 4^-0.5
		{"poly a=1 s=4", StalenessConfig{Func: StaleFuncPoly, Alpha: 1}, 4, 0.2},
		{"empty func is poly", StalenessConfig{Alpha: 1}, 4, 0.2},
		{"exp fresh", StalenessConfig{Func: StaleFuncExp, Alpha: 0.5}, 0, 1},
		{"exp a=0.5 s=2", StalenessConfig{Func: StaleFuncExp, Alpha: 0.5}, 2, math.Exp(-1)},
		{"const ignores staleness", StalenessConfig{Func: StaleFuncConst, Alpha: 9}, 100, 1},
		{"hinge fresh", StalenessConfig{Func: StaleFuncHinge, Alpha: 0.5}, 0, 1},
		{"hinge a=0.5 s=2", StalenessConfig{Func: StaleFuncHinge, Alpha: 0.5}, 2, 0.5}, // 1/(0.5·2+1)
		{"StaleExpOff poly", StalenessConfig{Func: StaleFuncPoly, Alpha: StaleExpOff}, 50, 1},
		{"StaleExpOff exp", StalenessConfig{Func: StaleFuncExp, Alpha: StaleExpOff}, 50, 1},
		{"StaleExpOff hinge", StalenessConfig{Func: StaleFuncHinge, Alpha: StaleExpOff}, 50, 1},
	}
	for _, c := range cases {
		if got := c.sc.Weight(c.s); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Weight(%v) = %v, want %v", c.name, c.s, got, c.want)
		}
	}
}

// TestStaleExpDefaulting mirrors TestLambdaDefaulting for the staleness
// decay: unset inherits 0.5, an explicit value is kept, and StaleExpOff
// survives the double defaulting (NewEnv then RunOn) instead of being
// silently reset — the bug this sentinel exists to fix.
func TestStaleExpDefaulting(t *testing.T) {
	def := (RunConfig{}).withDefaults()
	if def.Staleness.Alpha != 0.5 {
		t.Fatalf("unset staleness decay defaulted to %v, want 0.5", def.Staleness.Alpha)
	}
	if def.Staleness.Func != StaleFuncPoly {
		t.Fatalf("unset staleness func defaulted to %q, want poly", def.Staleness.Func)
	}

	set := (RunConfig{Staleness: StalenessConfig{Alpha: 0.25}}).withDefaults().withDefaults()
	if set.Staleness.Alpha != 0.25 {
		t.Fatalf("explicit staleness decay re-defaulted: %v", set.Staleness.Alpha)
	}

	twice := (RunConfig{Staleness: StalenessConfig{Alpha: StaleExpOff}}).withDefaults().withDefaults()
	if twice.Staleness.Alpha >= 0 {
		t.Fatalf("StaleExpOff did not survive double defaulting: %v", twice.Staleness.Alpha)
	}
	if got := twice.Staleness.Weight(37); got != 1 {
		t.Fatalf("StaleExpOff weight = %v, want 1 at any staleness", got)
	}
}

// staleUpdate builds a two-weight client update with its own staleness
// anchor.
func staleUpdate(a, b float64, start int) core.ClientUpdate {
	return core.ClientUpdate{Weights: []float64{a, b}, N: 1, StartRound: start}
}

// TestFedasyncMixedStalenessFold: a buffered fold with per-update anchors
// must blend each member with its OWN weight — verified bit-exactly against
// a hand-rolled sequential lerp — and must differ from the legacy batch rule
// on the same input, which drags every member down to the oldest anchor.
func TestFedasyncMixedStalenessFold(t *testing.T) {
	const alpha = 0.6
	sc := StalenessConfig{Func: StaleFuncPoly, Alpha: 0.5}
	updates := []core.ClientUpdate{
		staleUpdate(1, -2, 0),  // stale: trained against the version-0 snapshot
		staleUpdate(-3, 4, 7),  // stale by one
		staleUpdate(5, 0.5, 8), // fresh
	}

	r := &stalenessRule{asyncState: asyncAt([]float64{0.25, -0.75}, 8, alpha, sc), perUpdate: true}
	got, err := r.Fold(fold{Tier: -1, Updates: updates})
	if err != nil {
		t.Fatal(err)
	}

	want := []float64{0.25, -0.75}
	for _, u := range updates {
		tw := alpha * sc.Weight(float64(8-u.StartRound))
		for i := range want {
			want[i] = (1-tw)*want[i] + tw*u.Weights[i]
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("per-update fold[%d] = %v, want %v (bit-exact)", i, got[i], want[i])
		}
	}
	if r.Rounds() != 9 {
		t.Fatalf("fold advanced version to %d, want 9", r.Rounds())
	}

	legacy := &stalenessRule{asyncState: asyncAt([]float64{0.25, -0.75}, 8, alpha, sc)}
	lgot, err := legacy.Fold(fold{Tier: -1, Updates: updates})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range got {
		if got[i] != lgot[i] {
			same = false
		}
	}
	if same {
		t.Fatal("per-update fold matched the batch-anchored rule on mixed staleness — anchors are not per-update")
	}

	// Single-update folds (client pacing) are where the two rules coincide.
	one := []core.ClientUpdate{staleUpdate(1, -2, 5)}
	ra := &stalenessRule{asyncState: asyncAt([]float64{0, 0}, 9, alpha, sc), perUpdate: true}
	rb := &stalenessRule{asyncState: asyncAt([]float64{0, 0}, 9, alpha, sc)}
	ga, _ := ra.Fold(fold{Tier: -1, Updates: one})
	gb, _ := rb.Fold(fold{Tier: -1, Updates: one})
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("cohort-of-one fold diverged from legacy rule at [%d]: %v vs %v", i, ga[i], gb[i])
		}
	}
}

// TestAsyncSGDFold: one fold is one server step — every buffered member
// measures its delta against the same pre-fold model, weighted by its own
// staleness, and the mean delta is applied with step size α.
func TestAsyncSGDFold(t *testing.T) {
	const alpha = 0.6
	sc := StalenessConfig{Func: StaleFuncExp, Alpha: 0.3}
	global := []float64{0.25, -0.75}
	updates := []core.ClientUpdate{
		staleUpdate(1, -2, 2),
		staleUpdate(-3, 4, 5),
	}

	r := &asyncSGDRule{asyncState: asyncAt(append([]float64(nil), global...), 5, alpha, sc), delta: make([]float64, 2)}
	got, err := r.Fold(fold{Tier: -1, Updates: updates})
	if err != nil {
		t.Fatal(err)
	}

	delta := make([]float64, 2)
	for _, u := range updates {
		g := sc.Weight(float64(5 - u.StartRound))
		for i := range delta {
			delta[i] += g * (u.Weights[i] - global[i])
		}
	}
	for i := range global {
		want := global[i] + alpha/2*delta[i]
		if got[i] != want {
			t.Fatalf("asyncsgd fold[%d] = %v, want %v (bit-exact)", i, got[i], want)
		}
	}
	if r.Rounds() != 6 {
		t.Fatalf("fold advanced version to %d, want 6", r.Rounds())
	}
}

// TestFoldStartRound: the batch accessor reports the oldest member's anchor
// (the legacy rule's whole-fold staleness) and 0 on an empty fold.
func TestFoldStartRound(t *testing.T) {
	f := fold{Updates: []core.ClientUpdate{
		staleUpdate(0, 0, 6), staleUpdate(0, 0, 2), staleUpdate(0, 0, 4),
	}}
	if got := f.StartRound(); got != 2 {
		t.Fatalf("StartRound() = %d, want oldest member 2", got)
	}
	if got := (fold{}).StartRound(); got != 0 {
		t.Fatalf("empty fold StartRound() = %d, want 0", got)
	}
}

// lrFabric forwards to a fabric and records each dispatch's LR scale.
type lrFabric struct {
	Fabric
	scales []float64
}

func (f *lrFabric) Dispatch(comm *Comm, cohort []int, now float64, global []float64, lc LocalConfig, deliver func([]TrainResult, error)) {
	f.scales = append(f.scales, lc.LRScale)
	f.Fabric.Dispatch(comm, cohort, now, global, lc, deliver)
}

// TestAdaptiveLRReadsRunStaleness: the adaptive-LR stage scales each
// dispatch by the run's g(s), the value the async fold reads, so under
// exp:0.3 every scale is e^(−0.3·s) for a whole staleness s (1 for a loop
// not yet folded), and real staleness occurs.
func TestAdaptiveLRReadsRunStaleness(t *testing.T) {
	cfg := baseCfg()
	cfg.Staleness = StalenessConfig{Func: StaleFuncExp, Alpha: 0.3}
	cfg.AdaptiveLR = true
	m, err := Compose("fedasync", "", "client", "asyncsgd", "")
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t, 0, cfg)
	fab := &lrFabric{Fabric: env.Fabric()}
	if _, err := m.RunOn(fab, env.Cfg); err != nil {
		t.Fatal(err)
	}
	stale := 0
	for i, scale := range fab.scales {
		s := math.Round(-math.Log(scale) / 0.3)
		if scale != tensor.Exp(-0.3*s) {
			t.Fatalf("dispatch %d: LR scale %v is not e^(-0.3·s) for a whole s", i, scale)
		}
		if s >= 1 {
			stale++
		}
	}
	if stale == 0 {
		t.Fatalf("none of %d dispatches trained stale; the check is vacuous", len(fab.scales))
	}
}
