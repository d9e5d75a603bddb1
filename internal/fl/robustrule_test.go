package fl

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// TestRobustRulesFoldHandComputed drives the registered robust rules over a
// tiny cohort with known aggregates: honest members at 1, 2 and 6 plus two
// large outliers. Median kills the outliers, trimmed-mean at the fixed
// β=0.2 trims one per side, adaptive Krum picks an honest member verbatim.
func TestRobustRulesFoldHandComputed(t *testing.T) {
	cohort := []core.ClientUpdate{
		{Weights: []float64{1, 1}, N: 5, Client: 0},
		{Weights: []float64{6, 6}, N: 5, Client: 1},
		{Weights: []float64{100, -100}, N: 5, Client: 2},
		{Weights: []float64{2, 2}, N: 5, Client: 3},
		{Weights: []float64{-50, 50}, N: 5, Client: 4},
	}
	fold := func(kind string) []float64 {
		t.Helper()
		rule := &robustRule{modelState: modelState{global: make([]float64, 2)}, kind: kind}
		g, err := rule.Fold(fold{tier: -1, updates: cohort})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if rule.Rounds() != 1 {
			t.Fatalf("%s: version %d after one fold", kind, rule.Rounds())
		}
		return g
	}
	if g := fold("median"); g[0] != 2 || g[1] != 2 {
		t.Fatalf("median = %v, want [2 2]", g)
	}
	// β=0.2, k=5 trims one per side: the honest three average to 3.
	if g := fold("trimmed"); g[0] != 3 || g[1] != 3 {
		t.Fatalf("trimmed = %v, want [3 3]", g)
	}
	// Adaptive f=(5-3)/2=1 scores each candidate on its 2 nearest
	// neighbors: client 3 (2+32) beats client 0 (2+50) and client 1 (32+50).
	if g := fold("krum"); g[0] != 2 || g[1] != 2 {
		t.Fatalf("krum = %v, want [2 2]", g)
	}
}

// TestRobustRulesFoldFiniteUnderNaNUpdate: a cohort of five with one
// update of NaNs — an attacker's cheapest message — folds to a finite
// global under every robust kind (the gather law of internal/robust: a
// non-finite value is the largest of its coordinate; a NaN distance is the
// farthest). Through PR 21 all three kinds returned NaN or elected it.
func TestRobustRulesFoldFiniteUnderNaNUpdate(t *testing.T) {
	nan := math.NaN()
	for _, kind := range []string{"median", "trimmed", "krum"} {
		for pos := 0; pos < 5; pos++ {
			cohort := make([]core.ClientUpdate, 5)
			for i := range cohort {
				cohort[i] = core.ClientUpdate{Weights: []float64{float64(i), -float64(i)}, N: 5, Client: i}
			}
			cohort[pos].Weights = []float64{nan, nan}
			rule := &robustRule{modelState: modelState{global: make([]float64, 2)}, kind: kind}
			g, err := rule.Fold(fold{tier: -1, updates: cohort})
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			for _, v := range g {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s with the NaN update at %d folded to %v", kind, pos, g)
				}
			}
		}
	}
}

// TestRobustFoldAllocFree extends the PR 6 zero-alloc pin to the robust
// rules: steady-state folds of every robust kind allocate nothing, in both
// the tiered-cohort and single-update shapes the pacers drive.
func TestRobustFoldAllocFree(t *testing.T) {
	skipUnderRace(t)
	const dim = 512
	cohort := func(n int) []core.ClientUpdate {
		us := make([]core.ClientUpdate, n)
		for i := range us {
			us[i] = core.ClientUpdate{Weights: fuzzVec(uint64(i+2), dim), N: i + 3, Client: i}
		}
		return us
	}
	for _, kind := range []string{"median", "trimmed", "krum"} {
		t.Run(kind, func(t *testing.T) {
			rule := &robustRule{modelState: modelState{global: fuzzVec(1, dim)}, kind: kind}
			us := cohort(5)
			assertFoldAllocs(t, kind+" cohort fold", 0, func() {
				if _, err := rule.Fold(fold{tier: 0, updates: us}); err != nil {
					t.Fatal(err)
				}
			})
			one := cohort(1)
			assertFoldAllocs(t, kind+" single fold", 0, func() {
				if _, err := rule.Fold(fold{tier: -1, updates: one}); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// attackEnv is testEnv over a population with an attack regime switched on.
func attackEnv(t *testing.T, cfg RunConfig, b simnet.BehaviorConfig) *Env {
	t.Helper()
	fed, err := dataset.FashionLike(20, 2, dataset.ScaleSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := simnet.NewPopulation(simnet.ClusterConfig{
		NumClients:  20,
		NumUnstable: 2,
		DropHorizon: 2000,
		SecPerBatch: 0.05,
		UpBW:        1 << 20,
		DownBW:      1 << 20,
		ServerBW:    8 << 20,
		Behavior:    b,
		Seed:        cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	factory := func(seed uint64) *nn.Network {
		return nn.NewMLP(rng.New(seed), fed.InDim, 16, fed.Classes)
	}
	env, err := NewEnv(fed, pop, factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestAttackDeterministicAcrossWorkers: with every attack kind active, two
// same-seed runs are bit-identical even when GOMAXPROCS (which sizes the
// environment's replica pool) differs between them.
func TestAttackDeterministicAcrossWorkers(t *testing.T) {
	for _, kind := range []string{"labelflip", "scale", "freeride"} {
		t.Run(kind, func(t *testing.T) {
			sig := func() string {
				cfg := baseCfg()
				cfg.Rounds = 10
				b := simnet.BehaviorConfig{AttackKind: kind, AttackFrac: 0.3}
				return runSig(mustRun(t, "fedat", attackEnv(t, cfg, b)))
			}
			a := sig()
			prev := runtime.GOMAXPROCS(1)
			b := sig()
			runtime.GOMAXPROCS(prev)
			if a != b {
				t.Fatalf("%s attack not deterministic across worker counts:\n%s\nvs\n%s", kind, a, b)
			}
		})
	}
}

// TestRobustMethodsDeterministicUnderAttack: composed robust-fold methods
// over an attacked, churning population reproduce bit-for-bit.
func TestRobustMethodsDeterministicUnderAttack(t *testing.T) {
	for _, agg := range []string{"median", "trimmed", "krum"} {
		t.Run(agg, func(t *testing.T) {
			m, err := Compose("fedavg", "", "", agg, "fedavg+"+agg)
			if err != nil {
				t.Fatal(err)
			}
			sig := func() string {
				cfg := baseCfg()
				cfg.Rounds = 10
				b := simnet.BehaviorConfig{
					AttackKind: "scale", AttackFrac: 0.3,
					ChurnFrac: 0.2, ChurnOn: [2]float64{30, 80}, ChurnOff: [2]float64{10, 40},
				}
				run, err := m.Run(attackEnv(t, cfg, b))
				if err != nil {
					t.Fatal(err)
				}
				return runSig(run)
			}
			if a, b := sig(), sig(); a != b {
				t.Fatalf("%s not deterministic under attack:\n%s\nvs\n%s", agg, a, b)
			}
		})
	}
}

// TestAttacksOffBitIdentical: an attack regime with frac 0 (or a DP stage
// with clip 0) must be byte-identical to a run that predates the subsystem
// — the zero-config guarantee the committed goldens rely on.
func TestAttacksOffBitIdentical(t *testing.T) {
	base := func(cfg RunConfig) string {
		return runSig(mustRun(t, "fedat", testEnv(t, 2, cfg)))
	}
	cfg := baseCfg()
	cfg.Rounds = 8
	want := base(cfg)

	t.Run("attack-frac-zero", func(t *testing.T) {
		b := simnet.BehaviorConfig{AttackKind: "scale", AttackFrac: 0}
		got := runSig(mustRun(t, "fedat", attackEnv(t, cfg, b)))
		if got != want {
			t.Fatalf("attack frac 0 perturbed the run:\n%s\nvs\n%s", got, want)
		}
	})
	t.Run("dp-clip-zero", func(t *testing.T) {
		cfg2 := cfg
		cfg2.DPNoise = 1.5 // noise multiplier without a clip norm: stage off
		got := base(cfg2)
		if got != want {
			t.Fatalf("DPClip=0 run perturbed by DPNoise alone:\n%s\nvs\n%s", got, want)
		}
	})
}

// TestDPStage: the clip+noise stage is deterministic and actually changes
// the trained trajectory.
func TestDPStage(t *testing.T) {
	run := func(clip, noise float64) string {
		cfg := baseCfg()
		cfg.Rounds = 8
		cfg.DPClip = clip
		cfg.DPNoise = noise
		return runSig(mustRun(t, "fedavg", testEnv(t, 2, cfg)))
	}
	off := run(0, 0)
	a, b := run(2, 0.1), run(2, 0.1)
	if a != b {
		t.Fatalf("DP run not deterministic:\n%s\nvs\n%s", a, b)
	}
	if a == off {
		t.Fatal("DP stage enabled but the run is unchanged")
	}
}

// TestFedBuffPacer: the buffered pacer folds exactly every K arrivals,
// reproduces bit-for-bit, and still learns.
func TestFedBuffPacer(t *testing.T) {
	m, err := Compose("fedasync", "", "fedbuff", "", "fedbuff")
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	sig := func() (string, int, int) {
		cfg := baseCfg()
		cfg.Rounds = 12
		cfg.BufferK = k
		env := testEnv(t, 0, cfg)
		arrivals, folds := 0, 0
		run, err := m.Run(env, ObserverFunc(func(ev Event) {
			switch e := ev.(type) {
			case ClientDoneEvent:
				if !e.Dropped {
					arrivals++
				}
			case TierFoldEvent:
				folds++
				if e.Kept != k {
					t.Fatalf("fold %d kept %d updates, want %d", folds, e.Kept, k)
				}
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		return runSig(run), arrivals, folds
	}
	a, arrivals, folds := sig()
	b, _, _ := sig()
	if a != b {
		t.Fatalf("fedbuff not deterministic:\n%s\nvs\n%s", a, b)
	}
	if folds != 12 {
		t.Fatalf("%d folds, want the full 12-round budget", folds)
	}
	if arrivals < folds*k {
		t.Fatalf("%d arrivals cannot have fed %d folds of %d", arrivals, folds, k)
	}
	// A buffered selector mismatch is rejected like the client pacer's.
	if _, err := Compose("fedavg", "", "fedbuff", "", "bad"); err != nil {
		t.Fatal(err)
	} else {
		bad, _ := Compose("fedavg", "", "fedbuff", "", "bad")
		cfg := baseCfg()
		cfg.Rounds = 2
		if _, err := bad.Run(testEnv(t, 0, cfg)); err == nil {
			t.Fatal("fedbuff with a round selector should fail composition")
		}
	}
}

// TestRobustRuleRebase: robust rules adopt an external global (the
// hierarchical fold path) without losing their version counters.
func TestRobustRuleRebase(t *testing.T) {
	rule := &robustRule{modelState: modelState{global: []float64{1, 2}}, kind: "median"}
	if _, err := rule.Fold(fold{updates: []core.ClientUpdate{{Weights: []float64{5, 6}, N: 1}}}); err != nil {
		t.Fatal(err)
	}
	var reb Rebaser = rule
	g := reb.Rebase([]float64{9, 9})
	if g[0] != 9 || g[1] != 9 || rule.Rounds() != 1 {
		t.Fatalf("rebase got %v (version %d)", g, rule.Rounds())
	}
}
