package fl

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/tiering"
)

// dynamicEnv is testEnv over a drifting, churning population.
func dynamicEnv(t *testing.T, cfg RunConfig) *Env {
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
		Behavior: simnet.BehaviorConfig{
			DriftMag:      0.5,
			DriftInterval: 10,
			ChurnFrac:     0.25,
			ChurnOn:       [2]float64{30, 80},
			ChurnOff:      [2]float64{10, 40},
		},
		Seed: cfg.Seed,
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

// runSig condenses a run into a comparable signature: byte totals, rounds,
// retier stats and the bit pattern of every evaluation point.
func runSig(r *metrics.Run) string {
	s := fmt.Sprintf("up=%d down=%d rounds=%d retiers=%d migrations=%d",
		r.UpBytes, r.DownBytes, r.GlobalRounds, r.Retiers, r.TierMigrations)
	for _, p := range r.Points {
		s += fmt.Sprintf("|%d:%x:%x:%x", p.Round, p.Time, p.Acc, p.Var)
	}
	return s
}

// TestDynamicsDeterministic: with drift, churn AND runtime re-tiering all
// enabled, two identical seeded runs are bit-identical — the
// repository-wide reproducibility guarantee extends to the dynamic regime.
func TestDynamicsDeterministic(t *testing.T) {
	for _, name := range []string{"fedat", "fedasync"} {
		t.Run(name, func(t *testing.T) {
			run := func() string {
				cfg := baseCfg()
				cfg.Rounds = 30
				cfg.RetierEvery = 3
				return runSig(mustRun(t, name, dynamicEnv(t, cfg)))
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("%s not deterministic under dynamics:\n%s\nvs\n%s", name, a, b)
			}
		})
	}
}

// TestRetierNoOpForSyncPacing: RetierEvery must not perturb synchronously
// paced methods — the paper's baselines do not re-profile, so their runs
// with and without the knob are bit-identical even on a dynamic population.
func TestRetierNoOpForSyncPacing(t *testing.T) {
	for _, name := range []string{"fedavg", "tifl"} {
		t.Run(name, func(t *testing.T) {
			run := func(retier int) string {
				cfg := baseCfg()
				cfg.Rounds = 10
				cfg.RetierEvery = retier
				return runSig(mustRun(t, name, dynamicEnv(t, cfg)))
			}
			with, without := run(2), run(0)
			if with != without {
				t.Fatalf("%s run changed when RetierEvery was set:\n%s\nvs\n%s", name, with, without)
			}
		})
	}
}

// TestRetierFiresAndMigrates: FedAT on a strongly drifting population with
// periodic re-tiering performs retier passes and actually migrates clients;
// each pass hands the Eq. 5 fold a consistent partition, which the retier
// event follows.
func TestRetierFiresAndMigrates(t *testing.T) {
	cfg := baseCfg()
	cfg.Rounds = 60
	cfg.RetierEvery = 3
	probe := &routeProbe{eq5Rule: &eq5Rule{}}
	updateRules["eq5-retier"] = func() updateRule { return probe }
	defer delete(updateRules, "eq5-retier")
	m := Methods["fedat"]
	m.Update = "eq5-retier"
	var events int
	run, err := m.Run(dynamicEnv(t, cfg), ObserverFunc(func(ev Event) {
		if _, ok := ev.(retierEvent); !ok {
			return
		}
		events++
		tiers := probe.current // the partition the pass just handed the rule
		if tiers == nil || tiers.M() != cfg.NumTiers {
			t.Fatalf("retier pass handed the rule a bad partition: %+v", tiers)
		}
		assign := tiers.Assignment()
		for tier, members := range tiers.Members {
			if len(members) == 0 {
				t.Fatalf("retier pass emptied tier %d", tier)
			}
			for _, id := range members {
				if int(assign[id]) != tier {
					t.Fatalf("member/assignment mismatch for client %d", id)
				}
			}
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if run.Retiers == 0 || run.Retiers != events {
		t.Fatalf("retier passes: run records %d, observer saw %d, want > 0 and equal", run.Retiers, events)
	}
	if run.TierMigrations == 0 {
		t.Fatal("strong drift never migrated a single client")
	}
}

// TestStaticRunsUntouchedByDynamicsCode: a static environment (no behavior
// config) with RetierEvery unset must produce runs with zero retier
// bookkeeping — the default path carries no trace of the dynamics
// subsystem. (Bit-exactness of the default path is pinned separately by
// TestTraceGoldens, whose goldens hold each method's run record.)
func TestStaticRunsUntouchedByDynamicsCode(t *testing.T) {
	cfg := baseCfg()
	cfg.Rounds = 8
	run := mustRun(t, "fedat", testEnv(t, 2, cfg))
	if run.Retiers != 0 || run.TierMigrations != 0 {
		t.Fatalf("static run recorded retier activity: %d/%d", run.Retiers, run.TierMigrations)
	}
}

// TestLambdaDefaulting: RunConfig.Lambda 0 inherits DefaultLambda, LambdaOff
// survives repeated defaulting (configs pass through withDefaults twice) and
// disables the proximal term at the point of use.
func TestLambdaDefaulting(t *testing.T) {
	if got := (RunConfig{}).withDefaults().Lambda; got != DefaultLambda {
		t.Fatalf("unset Lambda defaulted to %v, want %v", got, DefaultLambda)
	}
	twice := (RunConfig{Lambda: LambdaOff}).withDefaults().withDefaults()
	if twice.Lambda >= 0 {
		t.Fatalf("LambdaOff did not survive double defaulting: %v", twice.Lambda)
	}
	rs := &runState{cfg: twice, method: Method{Local: LocalPolicy{Prox: true}}}
	if lc := rs.localConfig(0, lrSyncLoop); lc.Lambda != 0 {
		t.Fatalf("LambdaOff produced local λ=%v, want 0", lc.Lambda)
	}
	rs.cfg = (RunConfig{}).withDefaults()
	if lc := rs.localConfig(0, lrSyncLoop); lc.Lambda != DefaultLambda {
		t.Fatalf("default local λ=%v, want %v", lc.Lambda, DefaultLambda)
	}
}

// TestRetierRevivesDeadTier: when every member of a tier drops permanently,
// that tier's loop exits — but a later retier pass that promotes a live
// client into the tier must restart it, or the client silently leaves the
// training. The fast tier's members all drop at t=30; a genuinely fast
// client profiled into the slow tier is promoted by observation and must
// keep tier 0 folding afterwards.
func TestRetierRevivesDeadTier(t *testing.T) {
	cfg := baseCfg()
	cfg.Rounds = 60
	cfg.NumTiers = 2
	cfg.RetierEvery = 2
	env := testEnv(t, 0, cfg)
	fab := newDropFabric(env)
	tiers := mustTiers(t, env)
	// Tier 0 dies at t=5 — during its FIRST round, well before the slow
	// tier's first fold (~t=30) produces the observation that promotes the
	// fast client. The promotion therefore lands in an already-dead tier,
	// which only the post-retier loop re-kick can revive.
	const dropAt = 5.0

	// The engine profiles at run start, so both step changes are applied
	// from the event stream — after profiling, like a real population going
	// off script. Stage 1 (first event): every fast-tier member will drop
	// for good at t=5, killing tier 0 during its first round. Stage 2
	// (first event past t=10, when tier 0 is already dead): one slow-tier
	// client becomes genuinely fast, so its next observed rounds clear the
	// promotion margin into the dead tier — which only the post-retier
	// loop re-kick can revive.
	dropsSet, fastSet := false, false
	lastTier0Fold := 0.0
	run := mustRunOn(t, "fedat", fab, env.cfg, ObserverFunc(func(ev Event) {
		if !dropsSet {
			dropsSet = true
			for _, id := range tiers.Members[0] {
				fab.drop(int(id), dropAt)
			}
		}
		if e, ok := ev.(ClientDoneEvent); ok && !fastSet && e.Time >= 10 {
			fastSet = true
			fast := env.pop.Materialize(int(tiers.Members[1][0]))
			fast.SecPerBatch = 0.001
			fast.DelayLo, fast.DelayHi = 0, 0
		}
		if e, ok := ev.(TierFoldEvent); ok && e.Tier == 0 && e.Time > lastTier0Fold {
			lastTier0Fold = e.Time
		}
	}))
	if run.TierMigrations == 0 {
		t.Fatal("no client ever migrated into the dead tier")
	}
	// Pre-drop tier-0 folds land by ~t=8 (the in-flight first round); a
	// revived tier folds from ~t=30 on. 15 separates the regimes robustly.
	if lastTier0Fold <= 15 {
		t.Fatalf("tier 0 never folded again after its members dropped at t=%.0f (last fold t=%.1f)",
			dropAt, lastTier0Fold)
	}
}

// routeProbe is the eq5 fold with a witness: before each untiered fold it
// checks every update's routed tier against the member lists of the
// partition in effect, and counts the folds of clients that partition has
// moved away from their profiled tier.
type routeProbe struct {
	*eq5Rule
	current        *tiering.Tiers
	profiled       []int32
	checked, moved int
	wrong          []string
}

func (p *routeProbe) Init(rs *runState) error {
	if err := p.eq5Rule.Init(rs); err != nil {
		return err
	}
	p.current = p.eq5Rule.tiers
	p.profiled = p.current.Assignment()
	return nil
}

func (p *routeProbe) Repartition(t *tiering.Tiers) {
	p.current = t
	p.eq5Rule.Repartition(t)
}

func (p *routeProbe) Fold(f fold) ([]float64, error) {
	if f.tier < 0 {
		for _, u := range f.updates() {
			want := slices.IndexFunc(p.current.Members, func(members []int32) bool {
				return slices.Contains(members, int32(u.Client))
			})
			got, err := p.tierOf(u.Client)
			if err != nil {
				return nil, err
			}
			if got != want {
				p.wrong = append(p.wrong, fmt.Sprintf("client %d routed to tier %d, listed in %d", u.Client, got, want))
			}
			p.checked++
			if want != int(p.profiled[u.Client]) {
				p.moved++
			}
		}
	}
	return p.eq5Rule.Fold(f)
}

// TestEq5UntieredFoldsFollowRetier: a client-paced eq5 run (every fold is
// one untiered arrival) across runtime retier passes on a drifting
// population routes each arrival into the tier the partition in effect
// lists its client in — including clients a retier moved away from their
// profiled tier, which the id → tier table built before the retier would
// send to the old tier.
func TestEq5UntieredFoldsFollowRetier(t *testing.T) {
	probe := &routeProbe{eq5Rule: &eq5Rule{}}
	updateRules["eq5-probe"] = func() updateRule { return probe }
	defer delete(updateRules, "eq5-probe")
	cfg := baseCfg()
	cfg.Rounds = 200
	cfg.RetierEvery = 3
	m := Method{Name: "Async+eq5", Select: "all", Pace: "client", Update: "eq5-probe"}
	run, err := m.Run(dynamicEnv(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if run.TierMigrations == 0 || probe.moved == 0 {
		t.Fatalf("%d migrations, %d of %d folds from a migrated client; the row needs both", run.TierMigrations, probe.moved, probe.checked)
	}
	t.Logf("%d untiered updates routed, %d of them from clients off their profiled tier", probe.checked, probe.moved)
	if len(probe.wrong) > 0 {
		t.Fatalf("%d of %d untiered updates routed off the current partition, first: %s", len(probe.wrong), probe.checked, probe.wrong[0])
	}
}
