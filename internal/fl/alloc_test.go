package fl

import (
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
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

// TestFoldAllocFree pins every updateRule's steady-state fold at zero
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
		f := foldOf(0, cohort(5))
		assertFoldAllocs(t, "avg fold", 0, func() {
			if _, err := rule.Fold(f); err != nil {
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
			f := foldOf(0, cohort(3))
			assertFoldAllocs(t, name+" tiered fold", 0, func() {
				if _, err := rule.Fold(f); err != nil {
					t.Fatal(err)
				}
				f.tier = (f.tier + 1) % 3
			})
			one := foldOf(-1, cohort(1))
			assertFoldAllocs(t, name+" untiered single fold", 0, func() {
				if _, err := rule.Fold(one); err != nil {
					t.Fatal(err)
				}
			})
		})
	}

	t.Run("staleness", func(t *testing.T) {
		rule := &stalenessRule{asyncState: asyncAt(fuzzVec(1, dim), 0, 0.6, StalenessConfig{Func: StaleFuncPoly, Alpha: 0.5})}
		f := foldOf(-1, cohort(1))
		assertFoldAllocs(t, "staleness fold", 0, func() {
			if _, err := rule.Fold(f); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("fedasync", func(t *testing.T) {
		rule := &stalenessRule{asyncState: asyncAt(fuzzVec(1, dim), 0, 0.6, StalenessConfig{Func: StaleFuncPoly, Alpha: 0.5}), perUpdate: true}
		f := foldOf(-1, cohort(4))
		assertFoldAllocs(t, "fedasync fold", 0, func() {
			if _, err := rule.Fold(f); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("asyncsgd", func(t *testing.T) {
		rule := &asyncSGDRule{asyncState: asyncAt(fuzzVec(1, dim), 0, 0.6, StalenessConfig{Func: StaleFuncExp, Alpha: 0.3}), delta: make([]float64, dim)}
		f := foldOf(-1, cohort(4))
		assertFoldAllocs(t, "asyncsgd fold", 0, func() {
			if _, err := rule.Fold(f); err != nil {
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
		f := foldOf(-1, cohort(1))
		assertFoldAllocs(t, "asofed fold", 0, func() {
			if _, err := rule.Fold(f); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestHarvestAllocatesOnce: a harvest copies a cohort's survivors into one
// slice sized for the whole cohort, rather than growing it by appends, and
// into a buffer that has held a cohort it allocates nothing.
func TestHarvestAllocatesOnce(t *testing.T) {
	skipUnderRace(t)
	results := make([]TrainResult, 10)
	for i := range results {
		results[i] = TrainResult{Client: i, N: 5, Arrive: float64(i)}
	}
	results[4].Dropped = true
	var s randomSelector
	var kept []TrainResult
	harvest := func() {
		if done := s.Harvest(nil, results, &kept); len(kept) != 9 || done != 9 {
			t.Fatalf("harvest kept %d results, done at %v; want 9 at 9", len(kept), done)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		kept = nil
		harvest()
	}); allocs > 1 {
		t.Errorf("harvesting 10 results with one drop allocates %.0f times, want at most 1", allocs)
	}
	if allocs := testing.AllocsPerRun(20, harvest); allocs != 0 {
		t.Errorf("harvesting into a buffer that held a cohort allocates %.0f times, want 0", allocs)
	}
}

// TestEngineRoundAllocCeiling pins the allocation budget of full engine
// runs on the simulated fabric: after the first run has grown the per-run
// pools and scratch to size, a whole R-round run must stay under a small
// per-round ceiling. A run's count includes its set-up (the run state,
// channel, rule and selector, and the pacer's loops) and the events every
// round emits; the ceilings sit less than one allocation a round above the
// measured figures, so one allocation per dispatch or fold creeping back
// anywhere in the round loop (selection, pacing, training, transport,
// folding, a fold event boxed by value) fails them, before the benchmark
// gate notices it. The wide row's 100×512 weight
// gradient crosses parallelRowThreshold, so its GEMMs fan out (or run
// inline inside the cohort's region) every batch step: a fan-out that
// allocated would cost hundreds of allocations a round. The fedbuff row
// folds every K = 10 arrivals, so ten dispatches go into each round; the
// derived row runs FedAT over 2,000 lazily derived clients, where most
// dispatches first-touch their clients.
func TestEngineRoundAllocCeiling(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("full engine runs in -short")
	}
	const rounds = 6
	fedbuff, err := Compose("fedasync", "", "fedbuff", "", "fedbuff")
	if err != nil {
		t.Fatal(err)
	}
	retained := func(hidden int) func(*testing.T, RunConfig) *Env {
		return func(t *testing.T, cfg RunConfig) *Env {
			env, _ := testEnvWidth(t, 0, cfg, hidden)
			return env
		}
	}
	derived := func(t *testing.T, cfg RunConfig) *Env {
		c := baseSourceCase(cfg.Seed)
		c.dcfg.NumClients, c.ccfg.NumClients, c.ccfg.NumUnstable = 2000, 2000, 200
		c.rcfg = cfg
		env, _ := c.derived(t)
		return env
	}
	for _, c := range []struct {
		name     string
		m        Method
		env      func(*testing.T, RunConfig) *Env
		perRound float64
	}{
		{"fedavg", Methods["fedavg"], retained(16), 15.75},      // measured 15.0/round
		{"fedat", Methods["fedat"], retained(16), 28},           // measured 27.2–27.3/round
		{"fedavg-wide", Methods["fedavg"], retained(512), 15.9}, // measured 15.0–15.3/round
		{"fedbuff", fedbuff, retained(16), 34},                  // measured 33.2–33.5/round
		{"fedat-derived", Methods["fedat"], derived, 30.5},      // measured 29.8/round
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := baseCfg()
			cfg.Rounds = rounds
			cfg.EvalEvery = 3
			cfg.BufferK = 10
			env := c.env(t, cfg)
			run := func() {
				env.ResetState()
				if _, err := c.m.Run(env); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm up pools, caches, replica and member-slot scratch
			run()
			perRun := testing.AllocsPerRun(3, run)
			if ceiling := c.perRound * rounds; perRun > ceiling {
				t.Errorf("%s: %.0f allocs per %d-round run (%.1f/round), ceiling %.1f",
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
			model := float64(8 * len(env.initialWeights()))
			if perRound >= model {
				t.Errorf("%s: %.0f bytes allocated per update in steady state, one model is %.0f", tc.name, perRound, model)
			}
			t.Logf("%s: %.0f B/update steady state (model %.0f B)", tc.name, perRound, model)
		})
	}
}

// TestPacerRoundAllocFree pins what a steady client round allocates on the
// simulated fabric: the value events it emits (each boxed into the Event
// interface, one allocation apiece) and nothing else but a small stated
// allowance. Round starts and folds are engine-owned and box for free, so
// the allowance leaves them out. Every pacer loop keeps its dispatch's
// state in its own struct, the engine owns the cohort buffers, and a
// touched runtime costs no allocation of its own, so a per-dispatch
// closure, a fresh cohort or results slice, a per-client runtime, or a
// round start or fold boxed by value shows up as at least one allocation
// per dispatch or fold — at least 60 over the 60 folds measured, more
// than the allowance. Heap counts are read from inside the run, between two
// folds, so per-run set-up is excluded. The derived row runs over a
// population of 2,000 clients, where most dispatches first-touch their
// clients.
func TestPacerRoundAllocFree(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("full engine runs in -short")
	}
	const warm, rounds = 10, 70
	// slack is the allowance beyond the value events over the whole measured
	// window: the Go runtime's own allocations and the occasional growth of
	// the clock's queue, the population's touched-client index and its storage
	// chunks (one per 64 first touches). Measured: 3 to 12.
	const slack = 20
	compose := func(base, pace string) Method {
		m, err := Compose(base, "", pace, "", "")
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	retained := func(t *testing.T, cfg RunConfig) *Env { return testEnv(t, 0, cfg) }
	derived := func(t *testing.T, cfg RunConfig) *Env {
		c := baseSourceCase(cfg.Seed)
		c.dcfg.NumClients, c.ccfg.NumClients, c.ccfg.NumUnstable = 2000, 2000, 200
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
		{"sync", Methods["fedavg"], retained},
		{"sync-tifl", Methods["tifl"], retained},
		{"sync-oversel", Methods["fedavg-oversel"], retained},
		{"tier", Methods["fedat"], retained},
		{"client", Methods["fedasync"], retained},
		{"fedbuff", compose("fedasync", "fedbuff"), retained},
		{"tier-derived", Methods["fedat"], derived},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseCfg()
			cfg.Rounds = rounds
			cfg.EvalEvery = 8
			cfg.BufferK = 4
			// measure runs the method on a fresh environment and returns
			// the allocations, value events and client rounds of the window.
			measure := func() (allocs, events, clientRounds int) {
				env := tc.env(t, cfg)
				var before, after runtime.MemStats
				folds := 0
				if _, err := tc.m.Run(env, ObserverFunc(func(ev Event) {
					if folds >= warm && folds < rounds {
						switch ev.(type) {
						case RoundStartEvent, TierFoldEvent:
						case ClientDoneEvent:
							events++
							clientRounds++
						default:
							events++
						}
					}
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
				if folds < rounds || clientRounds == 0 {
					t.Fatalf("only %d of %d folds, %d client rounds", folds, rounds, clientRounds)
				}
				return int(after.Mallocs - before.Mallocs), events, clientRounds
			}
			// A busy machine adds the runtime's own allocations in bursts
			// (a blocked region's wait, say); the engine's are the same
			// every run. So the best of three runs is compared.
			allocs, events, clientRounds := measure()
			for range 2 {
				if a, e, _ := measure(); a-e < allocs-events {
					allocs, events = a, e
				}
			}
			if allocs > events+slack {
				t.Errorf("%s: %d allocations over %d folds and %d client rounds, which emitted %d value events: %d beyond them, allowance %d",
					tc.name, allocs, rounds-warm, clientRounds, events, allocs-events, slack)
			}
			t.Logf("%s: %d allocations, %d value events, %d client rounds (%d beyond the value events)", tc.name, allocs, events, clientRounds, allocs-events)
		})
	}
}

// TestReplicaPermAllocFree: a replica's shuffle order is sized for the
// environment's largest training split when the replica is built, so a
// replica that has trained only the smallest shard trains the largest
// without allocating, whether the shards are retained or derived. Each
// shard is bound outside the measurement: what is counted is the training.
func TestReplicaPermAllocFree(t *testing.T) {
	skipUnderRace(t)
	cfg := baseCfg()
	derived, _ := baseSourceCase(cfg.Seed).derived(t)
	for _, tc := range []struct {
		name string
		env  *Env
	}{
		{"retained", testEnv(t, 0, cfg)},
		{"derived", derived},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := tc.env
			small, large := 0, 0
			for id := range env.n {
				if env.shards.NumTrain(id) < env.shards.NumTrain(small) {
					small = id
				}
				if env.shards.NumTrain(id) > env.shards.NumTrain(large) {
					large = id
				}
			}
			if env.shards.NumTrain(small) == env.shards.NumTrain(large) {
				t.Fatalf("every shard trains %d samples: no smallest and largest", env.shards.NumTrain(small))
			}
			c := env.replicas[0]
			lc := LocalConfig{Epochs: 1, BatchSize: env.cfg.BatchSize, Round: 1}
			bind := func(id int) {
				c.data = env.shards.TrainInto(new(dataset.ClientData), id)
				c.scheduleRNG = env.root.SplitLabeledValue(uint64(scheduleStreamBase + id))
			}
			bind(small)
			c.TrainLocal(env.w0, lc)
			bind(large)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.TrainLocal(env.w0, lc)
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("training the largest shard (%d samples) after the smallest (%d) allocated %d times, want 0",
					env.shards.NumTrain(large), env.shards.NumTrain(small), n)
			}
		})
	}
}

// TestReplicaShardAllocFree: every replica of an environment over a
// derived population has its shard scratch sized for the largest training
// and test splits when it is built, so the first shard a replica
// synthesizes for training, and the first it synthesizes for evaluation,
// allocate nothing, however large; before, the scratch grew the first time
// a replica met a shard larger than any it had held, a point scheduling
// decides.
func TestReplicaShardAllocFree(t *testing.T) {
	skipUnderRace(t)
	env, _ := baseSourceCase(baseCfg().Seed).derived(t)
	numTest := func(id int) int { return env.shards.TestInto(new(dataset.ClientData), id).NumTest() }
	largeTrain, largeTest := 0, 0
	for id := range env.n {
		if env.shards.NumTrain(id) > env.shards.NumTrain(largeTrain) {
			largeTrain = id
		}
		if numTest(id) > numTest(largeTest) {
			largeTest = id
		}
	}
	for i, rep := range env.replicas {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		train := env.shards.TrainInto(&rep.shard, largeTrain).NumTrain()
		test := env.shards.TestInto(&rep.shard, largeTest).NumTest()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("replica %d: synthesizing the largest training split (%d samples) and test split (%d) allocated %d times, want 0", i, train, test, n)
		}
	}
}
