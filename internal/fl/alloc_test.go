package fl

import (
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// Steady-state allocation ceilings for the aggregation fold path and for
// whole engine rounds. The fold rules rewrite reused tier models, the Eq. 5
// scratch and per-client copies in place, so every fold shape the engine
// drives in steady state must allocate nothing; the full-run ceilings catch
// any alloc creeping back anywhere in the round loop (selection, pacing,
// training, transport, folding) before the benchmark gate notices it.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("-race instruments allocations; AllocsPerRun counts are meaningless")
	}
}

func assertFoldAllocs(t *testing.T, what string, ceiling float64, f func()) {
	t.Helper()
	f() // warm up: first folds grow scratch to shape
	f()
	if got := testing.AllocsPerRun(50, f); got > ceiling {
		t.Errorf("%s allocates %.1f times per fold in steady state, ceiling %.0f", what, got, ceiling)
	}
}

// TestFoldAllocFree pins every UpdateRule's steady-state fold at zero
// allocations, in the shapes the engine actually drives: tiered folds
// (FedAT's tier rounds, FedAvg's single tier) and single-update untiered
// folds (the wait-free async client loops).
func TestFoldAllocFree(t *testing.T) {
	skipUnderRace(t)
	const dim = 512
	w0 := fuzzVec(1, dim)
	cohort := func(n int) []core.ClientUpdate {
		us := make([]core.ClientUpdate, n)
		for i := range us {
			us[i] = core.ClientUpdate{Weights: fuzzVec(uint64(i+2), dim), N: i + 3, Client: i}
		}
		return us
	}

	t.Run("avg", func(t *testing.T) {
		agg, err := core.NewAggregator(1, w0, true)
		if err != nil {
			t.Fatal(err)
		}
		rule := &avgRule{agg: agg}
		us := cohort(5)
		assertFoldAllocs(t, "avg fold", 0, func() {
			if _, err := rule.Fold(Fold{Tier: 0, Updates: us}); err != nil {
				t.Fatal(err)
			}
		})
	})

	for _, uniform := range []bool{false, true} {
		name := "eq5"
		if uniform {
			name = "uniform"
		}
		t.Run(name, func(t *testing.T) {
			agg, err := core.NewAggregator(3, w0, !uniform)
			if err != nil {
				t.Fatal(err)
			}
			rule := &eq5Rule{agg: agg, assignment: []int32{0, 1, 2, 0, 1}, forceUniform: uniform}
			us := cohort(3)
			tier := 0
			assertFoldAllocs(t, name+" tiered fold", 0, func() {
				if _, err := rule.Fold(Fold{Tier: tier % 3, Updates: us}); err != nil {
					t.Fatal(err)
				}
				tier++
			})
			one := cohort(1)
			assertFoldAllocs(t, name+" untiered single fold", 0, func() {
				if _, err := rule.Fold(Fold{Tier: -1, Updates: one}); err != nil {
					t.Fatal(err)
				}
			})
		})
	}

	t.Run("staleness", func(t *testing.T) {
		rule := &stalenessRule{asyncState: asyncAt(fuzzVec(1, dim), 0, 0.6, StalenessConfig{Func: StaleFuncPoly, Alpha: 0.5})}
		us := cohort(1)
		assertFoldAllocs(t, "staleness fold", 0, func() {
			if _, err := rule.Fold(Fold{Tier: -1, Updates: us}); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("fedasync", func(t *testing.T) {
		rule := &stalenessRule{asyncState: asyncAt(fuzzVec(1, dim), 0, 0.6, StalenessConfig{Func: StaleFuncPoly, Alpha: 0.5}), perUpdate: true}
		us := cohort(4)
		assertFoldAllocs(t, "fedasync fold", 0, func() {
			if _, err := rule.Fold(Fold{Tier: -1, Updates: us}); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("asyncsgd", func(t *testing.T) {
		rule := &asyncSGDRule{asyncState: asyncAt(fuzzVec(1, dim), 0, 0.6, StalenessConfig{Func: StaleFuncExp, Alpha: 0.3}), delta: make([]float64, dim)}
		us := cohort(4)
		assertFoldAllocs(t, "asyncsgd fold", 0, func() {
			if _, err := rule.Fold(Fold{Tier: -1, Updates: us}); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("asofed", func(t *testing.T) {
		rule := &asoRule{copies: make([][]float64, 5), copySum: make([]float64, dim), global: make([]float64, dim)}
		for c := range rule.copies {
			rule.copies[c] = fuzzVec(1, dim)
			rule.totalN += c + 3
		}
		us := cohort(1)
		assertFoldAllocs(t, "asofed fold", 0, func() {
			if _, err := rule.Fold(Fold{Tier: -1, Updates: us}); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestHarvestAllocatesOnce: a harvest copies a cohort's survivors into one
// slice sized for the whole cohort, rather than growing it by appends.
func TestHarvestAllocatesOnce(t *testing.T) {
	skipUnderRace(t)
	results := make([]TrainResult, 10)
	for i := range results {
		results[i] = TrainResult{Client: i, N: 5, Arrive: float64(i)}
	}
	results[4].Dropped = true
	var s randomSelector
	if allocs := testing.AllocsPerRun(20, func() {
		surv, done := s.Harvest(nil, results)
		if len(surv) != 9 || done != 9 {
			t.Fatalf("harvest kept %d results, done at %v; want 9 at 9", len(surv), done)
		}
	}); allocs > 1 {
		t.Errorf("harvesting 10 results with one drop allocates %.0f times, want at most 1", allocs)
	}
}

// TestEngineRoundAllocCeiling pins the allocation budget of full engine
// runs on the simulated fabric: after the first run has grown the per-run
// pools and scratch to size, a whole R-round run must stay under a small
// per-round ceiling. The ceilings have headroom over measured steady state
// (a few allocs/round from cohort bookkeeping and eval) but sit far below
// one alloc per client per parameter-vector — the regression this test
// exists to catch. The wide row's 100×512 weight gradient crosses
// parallelRowThreshold, so its GEMMs fan out (or run inline inside the
// cohort's region) every batch step: a fan-out that allocated would cost
// hundreds of allocations a round.
func TestEngineRoundAllocCeiling(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("full engine runs in -short")
	}
	const rounds = 6
	for _, c := range []struct {
		name, method string
		hidden       int
		perRound     float64
	}{
		{"fedavg", "fedavg", 16, 80},       // measured ~24/round
		{"fedat", "fedat", 16, 80},         // measured ~38/round
		{"fedavg-wide", "fedavg", 512, 35}, // measured ~24/round
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := baseCfg()
			cfg.Rounds = rounds
			cfg.EvalEvery = 3
			env, _ := testEnvWidth(t, 0, cfg, c.hidden)
			run := func() {
				env.ResetState()
				mustRun(t, c.method, env)
			}
			run() // warm up pools, caches, replica and member-slot scratch
			run()
			perRun := testing.AllocsPerRun(3, run)
			if ceiling := c.perRound * rounds; perRun > ceiling {
				t.Errorf("%s: %.0f allocs per %d-round run (%.1f/round), ceiling %.0f",
					c.name, perRun, rounds, perRun/rounds, ceiling)
			}
			t.Logf("%s: %.1f allocs/round steady state", c.name, perRun/rounds)
		})
	}
}

// TestEngineRoundByteCeiling is the byte twin of the count ceiling above,
// under the paper's lossy codec (the count test's default Raw channel never
// encodes): once a run's pools and scratch are warm, a global update must
// allocate less than ONE model's worth of bytes, whatever the pacing — a
// per-transmit encode buffer, a per-member downlink copy or a per-arrival
// decode buffer each cost a multiple of that. Heap bytes are read from
// inside the run (between two folds), so per-run set-up is excluded. The
// last row runs FedAT over a derived population at the 1M-client
// benchmark's shapes (100-32-10 MLP, cohorts of ten 24-sample shards): one
// cohort's shards alone are seven models' worth, so it holds only while
// shards are synthesized into worker and evaluator scratch.
func TestEngineRoundByteCeiling(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("full engine runs in -short")
	}
	const warm, rounds = 10, 40
	fedbuff, err := Compose("fedasync", "", "fedbuff", "", "fedbuff")
	if err != nil {
		t.Fatal(err)
	}
	retained := func(t *testing.T, cfg RunConfig) *Env { return testEnv(t, 0, cfg) }
	derived := func(t *testing.T, cfg RunConfig) *Env {
		c := baseSourceCase(cfg.Seed)
		c.dcfg.NumClients, c.ccfg.NumClients, c.ccfg.NumUnstable = 2000, 2000, 200
		c.dcfg.ImgH, c.dcfg.ImgW = 10, 10
		c.factory = func(seed uint64) *nn.Network { return nn.NewMLP(rng.New(seed), 100, 32, 10) }
		cfg.ClientsPerRound, cfg.LocalEpochs, cfg.BatchSize = 10, 1, 10
		c.rcfg = cfg
		env, _ := c.derived(t)
		return env
	}
	for _, tc := range []struct {
		name string
		m    Method
		env  func(*testing.T, RunConfig) *Env
	}{
		{Methods["fedavg"].Name, Methods["fedavg"], retained},
		{Methods["fedat"].Name, Methods["fedat"], retained},
		{fedbuff.Name, fedbuff, retained},
		{Methods["fedat"].Name + "-derived", Methods["fedat"], derived},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseCfg()
			cfg.Rounds = rounds
			cfg.EvalEvery = 8
			cfg.BufferK = 4
			cfg.Codec = codec.NewPolyline(4)
			env := tc.env(t, cfg)
			var before, after runtime.MemStats
			folds := 0
			if _, err := tc.m.Run(env, ObserverFunc(func(ev Event) {
				if _, ok := ev.(TierFoldEvent); !ok {
					return
				}
				switch folds++; folds {
				case warm:
					runtime.ReadMemStats(&before)
				case rounds:
					runtime.ReadMemStats(&after)
				}
			})); err != nil {
				t.Fatal(err)
			}
			if folds < rounds {
				t.Fatalf("only %d of %d folds", folds, rounds)
			}
			perRound := float64(after.TotalAlloc-before.TotalAlloc) / (rounds - warm)
			model := float64(8 * len(env.InitialWeights()))
			if perRound >= model {
				t.Errorf("%s: %.0f bytes allocated per update in steady state, one model is %.0f", tc.name, perRound, model)
			}
			t.Logf("%s: %.0f B/update steady state (model %.0f B)", tc.name, perRound, model)
		})
	}
}
