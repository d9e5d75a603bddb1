package fl

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/tiering"
)

// sourceCase is one paired (dataset, population, run) configuration from
// which both kinds of environment are built: NewEnv over the generated
// federation, NewLazyEnv over the source, each with its own population.
type sourceCase struct {
	dcfg    dataset.Config
	ccfg    simnet.ClusterConfig
	rcfg    RunConfig
	factory ModelFactory
}

// baseSourceCase is a small static population — image shards, unstable
// clients, finite links — with every optional stage off. The variants below
// switch one stage on each, so a divergence names the stream that moved.
func baseSourceCase(seed uint64) sourceCase {
	return sourceCase{
		dcfg: dataset.Config{
			Name: "lazylike", NumClients: 20, Classes: 10, SamplesPerClient: 24,
			ClassesPerClient: 2, Seed: seed, ImgC: 1, ImgH: 6, ImgW: 6,
			Signal: 0.3, Noise: 1.0,
		},
		ccfg: simnet.ClusterConfig{
			NumClients: 20, NumUnstable: 3, DropHorizon: 600,
			SecPerBatch: 0.05, UpBW: 1 << 20, DownBW: 1 << 20, ServerBW: 8 << 20,
			Seed: seed,
		},
		rcfg: RunConfig{
			Rounds: 8, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 6,
			LearningRate: 0.02, NumTiers: 3, EvalEvery: 2,
			Seed: seed,
		},
		factory: func(seed uint64) *nn.Network { return nn.NewMLP(rng.New(seed), 36, 8, 10) },
	}
}

// adversarialSourceCase switches everything on at once: drift + churn, a
// scaling attack and the DP stage, so every derived stream (speed, delay,
// drift, churn, schedule, DP noise, attack membership) is exercised in one
// run.
func adversarialSourceCase(seed uint64) sourceCase {
	c := baseSourceCase(seed)
	c.ccfg.Behavior = simnet.BehaviorConfig{
		DriftMag: 0.2, DriftInterval: 40,
		ChurnFrac:  0.25,
		AttackFrac: 0.2, AttackKind: "scale", AttackScale: -2,
	}
	c.rcfg.DPClip, c.rcfg.DPNoise = 0.5, 0.01
	return c
}

// retained builds the environment over retained shards.
func (c sourceCase) retained(t testing.TB) *Env {
	t.Helper()
	fed, err := dataset.Generate(c.dcfg)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := simnet.NewPopulation(c.ccfg)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(fed, pop, c.factory, c.rcfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// derived builds the environment over derived shards, returning the
// population so a test can count what a run materialized.
func (c sourceCase) derived(t testing.TB) (*Env, *simnet.Population) {
	t.Helper()
	src, err := dataset.NewSource(c.dcfg)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := simnet.NewPopulation(c.ccfg)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewLazyEnv(src, pop, c.factory, c.rcfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, pop
}

// TestLazyEnvMatchesEagerRun pins retained ≡ derived: a full run over an
// environment built by NewLazyEnv — on-demand shards and an evaluation
// panel covering the whole (small) population — produces a run record
// bit-identical to one over NewEnv's retained federation. Every registry method and a composed fedbuff
// method run on the base case; then one case each switches on DP, an
// attack regime, churn/drift, and the dropout LSTM (whose mask
// stream is the only training state a weight vector does not carry).
func TestLazyEnvMatchesEagerRun(t *testing.T) {
	type variant struct {
		name   string
		method string
		edit   func(*sourceCase)
	}
	var variants []variant
	for _, name := range MethodNames() {
		variants = append(variants, variant{name: name, method: name})
	}
	variants = append(variants,
		variant{name: "fedbuff:fedasync:hinge", method: "fedbuff", edit: func(c *sourceCase) {
			c.rcfg.Staleness = StalenessConfig{Func: StaleFuncHinge, Alpha: 0.5}
		}},
		variant{name: "dp", method: "fedat", edit: func(c *sourceCase) {
			c.rcfg.DPClip, c.rcfg.DPNoise = 0.5, 0.01
		}},
		variant{name: "attack", method: "fedavg", edit: func(c *sourceCase) {
			c.ccfg.Behavior = simnet.BehaviorConfig{AttackFrac: 0.2, AttackKind: "labelflip"}
		}},
		variant{name: "dynamics", method: "fedat", edit: func(c *sourceCase) {
			c.ccfg.Behavior = simnet.BehaviorConfig{
				DriftMag: 0.2, DriftInterval: 40, ChurnFrac: 0.25,
			}
			c.rcfg.RetierEvery = 3
		}},
		variant{name: "lstm", method: "fedprox", edit: (*sourceCase).useLSTM},
	)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			c := baseSourceCase(17)
			if v.edit != nil {
				v.edit(&c)
			}
			var m Method
			var err error
			if v.method == "fedbuff" {
				m, err = Compose("fedasync", "", "fedbuff", "fedasync", "")
			} else {
				m, err = Lookup(v.method)
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Run(c.retained(t))
			if err != nil {
				t.Fatal(err)
			}
			env, _ := c.derived(t)
			got, err := m.Run(env)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Points) == 0 {
				t.Fatal("run recorded no evaluations; the comparison is vacuous")
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("derived run diverged from retained run:\nretained: %+v\nderived:  %+v", want, got)
			}
		})
	}
}

// useLSTM swaps the case's task for next-token prediction over the Reddit
// model in miniature — embedding, LSTM, dropout, batch norm, dense — the
// one architecture with a stochastic layer.
func (c *sourceCase) useLSTM() {
	const vocab, seqLen = 16, 6
	c.dcfg = dataset.Config{
		Name: "tokenlike", NumClients: c.dcfg.NumClients, Classes: vocab, SamplesPerClient: 24,
		ClassesPerClient: 4, PowerLaw: true, Seed: c.dcfg.Seed, Vocab: vocab, SeqLen: seqLen,
	}
	cfg := nn.LSTMConfig{
		Vocab: vocab, Emb: 4, Hidden: 6, SeqLen: seqLen, Classes: vocab,
		Dropout: 0.1, BatchNorm: true,
	}
	c.factory = func(seed uint64) *nn.Network { return nn.NewLSTMClassifier(rng.New(seed), cfg) }
}

// TestLazyEnvResetReuse pins the reuse contract on a derived population:
// after ResetState a second run on the SAME Env is bit-identical to the
// first — no worker binding, materialized runtime, delay-stream position or
// link reservation survives a run.
func TestLazyEnvResetReuse(t *testing.T) {
	env, _ := adversarialSourceCase(29).derived(t)
	first := mustRun(t, "fedat", env)
	env.ResetState()
	second := mustRun(t, "fedat", env)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("run after ResetState diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// withProcs runs f at GOMAXPROCS n and restores the previous setting.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestEnvReplicasBoundedByCores pins the replica ceiling: a retained
// 100-client environment constructs at most min(GOMAXPROCS, N) model
// replicas plus a reference model over a whole fedat, fedavg and tifl
// sequence — for training and evaluation together — and the same number at
// cohort 6 as at cohort 30, both larger than the core count.
func TestEnvReplicasBoundedByCores(t *testing.T) {
	const procs, n = 4, 100
	built := func(cohortSize int) int64 {
		c := baseSourceCase(5)
		c.dcfg.NumClients, c.ccfg.NumClients = n, n
		c.ccfg.NumUnstable = 10
		c.rcfg.Rounds, c.rcfg.ClientsPerRound, c.rcfg.NumTiers = 30, cohortSize, 5
		var count atomic.Int64
		inner := c.factory
		c.factory = func(seed uint64) *nn.Network {
			count.Add(1)
			return inner(seed)
		}
		cohort := &largestCohort{}
		withProcs(procs, func() {
			env := c.retained(t)
			for _, name := range []string{"fedat", "fedavg", "tifl"} {
				env.ResetState()
				if run := mustRun(t, name, env, cohort); run.GlobalRounds == 0 {
					t.Fatalf("cohort %d, %s: no global rounds completed", cohortSize, name)
				}
			}
		})
		if cohort.n <= procs {
			t.Fatalf("cohort %d: largest dispatch was %d, not above GOMAXPROCS %d; the bound is untested", cohortSize, cohort.n, procs)
		}
		if limit := int64(min(procs, n) + 1); count.Load() > limit {
			t.Fatalf("cohort %d: %d model replicas constructed; want ≤ %d (min(GOMAXPROCS, N) + 1)", cohortSize, count.Load(), limit)
		}
		return count.Load()
	}
	if small, large := built(6), built(30); small != large {
		t.Fatalf("cohort 6 built %d model replicas, cohort 30 built %d; the count must not follow the cohort", small, large)
	}
}

// TestEnvWorkersBoundedByReplicas: raising GOMAXPROCS after an environment
// is built neither panics on an empty replica pool nor deadlocks — a
// dispatch runs no more workers than there are replicas — and the run is
// the one the environment gives at the core count it was built with. A
// serial run keeps taking the same replica, so on a two-replica environment
// only one ever trains.
func TestEnvWorkersBoundedByReplicas(t *testing.T) {
	c := baseSourceCase(23)
	var want, got *metrics.Run
	var env *Env
	withProcs(1, func() { want = mustRun(t, "fedat", c.retained(t)) })
	withProcs(1, func() { env = c.retained(t) })
	withProcs(4, func() { got = mustRun(t, "fedat", env) })
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("run at GOMAXPROCS 4 on an env built at 1 diverged:\nwant: %+v\ngot:  %+v", want, got)
	}

	withProcs(2, func() { env = c.retained(t) })
	if len(env.replicas) != 2 {
		t.Fatalf("env built at GOMAXPROCS 2 holds %d replicas", len(env.replicas))
	}
	withProcs(1, func() { mustRun(t, "fedat", env) })
	trained := 0
	for _, r := range env.replicas {
		if r.batchX != nil {
			trained++
		}
	}
	if trained != 1 {
		t.Fatalf("a serial run trained on %d of 2 replicas; want 1", trained)
	}
}

// TestRunsIdenticalAcrossCores: a same-seed run gives an identical record
// whether its environment is built and run at GOMAXPROCS 1, 2 or 4 — that
// is, with one, two or four replicas shared by training and evaluation.
// The cases cover the CNN (whose im2col caches the evaluator reuses), FedAT's
// overlapping tiers, a buffered-async robust fold under attack, and the
// dropout LSTM (the one stochastic layer).
func TestRunsIdenticalAcrossCores(t *testing.T) {
	smallCNN := func(c *sourceCase) {
		c.factory = func(seed uint64) *nn.Network {
			return nn.NewCNN(rng.New(seed), nn.SmallCNN(c.dcfg.ImgC, c.dcfg.ImgH, c.dcfg.ImgW, c.dcfg.Classes))
		}
	}
	fedbuffMedian, err := Compose("fedasync", "", "fedbuff", "median", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    Method
		edit func(*sourceCase)
	}{
		{"fedavg-cnn", Methods["fedavg"], smallCNN},
		{"fedat", Methods["fedat"], nil},
		{"fedbuff-median-attack", fedbuffMedian, func(c *sourceCase) {
			c.ccfg.Behavior = simnet.BehaviorConfig{AttackFrac: 0.2, AttackKind: "scale", AttackScale: -2}
		}},
		{"fedprox-lstm", Methods["fedprox"], (*sourceCase).useLSTM},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := baseSourceCase(31)
			if tc.edit != nil {
				tc.edit(&c)
			}
			var runs []*metrics.Run
			for _, procs := range []int{1, 2, 4} {
				withProcs(procs, func() {
					run, err := tc.m.Run(c.retained(t))
					if err != nil {
						t.Fatal(err)
					}
					runs = append(runs, run)
				})
			}
			if len(runs[0].Points) == 0 {
				t.Fatal("run recorded no evaluations; the comparison is vacuous")
			}
			for i, procs := range []int{2, 4} {
				if !reflect.DeepEqual(runs[0], runs[i+1]) {
					t.Fatalf("GOMAXPROCS %d diverged from 1:\n1: %+v\n%d: %+v", procs, runs[0], procs, runs[i+1])
				}
			}
		})
	}
}

// largestCohort records the largest cohort any RoundStartEvent dispatched.
type largestCohort struct{ n int }

func (l *largestCohort) OnEvent(ev Event) {
	if e, ok := ev.(RoundStartEvent); ok && len(e.Clients) > l.n {
		l.n = len(e.Clients)
	}
}

// heapDelta runs f between two full collections and returns the heap f
// left live and the bytes it allocated. What f builds must stay reachable
// from the caller afterwards, or it counts as allocated but not live.
func heapDelta(f func()) (live, alloc int64) {
	var before, after runtime.MemStats
	runtime.GC() // twice: the first may leave sync.Pool victims for the second
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), int64(after.TotalAlloc - before.TotalAlloc)
}

// TestProfileTiersIndependentOfWorkers: the partition calls profileTiers'
// latency function from parallel workers, so it must not depend on how
// many there are. A 600k-client derived population, enough for two
// partition workers, is profiled under GOMAXPROCS 1 and 4, without and
// with mis-profiling (whose override table the function checks first),
// and Members must match exactly. Under -short it is 50k clients, one
// worker.
func TestProfileTiersIndependentOfWorkers(t *testing.T) {
	n := 600_000
	if testing.Short() {
		n = 50_000
	}
	for _, frac := range []float64{0, 0.3} {
		c := baseSourceCase(7)
		c.dcfg.NumClients, c.ccfg.NumClients, c.ccfg.NumUnstable = n, n, n/10
		c.rcfg.NumTiers, c.rcfg.MisTierFrac = 5, frac
		env, _ := c.derived(t)
		profile := func(procs int) *tiering.Tiers {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return mustTiers(t, env)
		}
		if serial, wide := profile(1), profile(4); !reflect.DeepEqual(serial, wide) {
			t.Fatalf("MisTierFrac %v: the partition under GOMAXPROCS 4 differs from the one under 1", frac)
		}
	}
}

// TestDerivedPopulationFootprint is the memory ledger of a one-million-client
// derived environment: each owner's bytes are measured and held to a
// formula in N clients and U unstable ones.
//
//   - Retained after NewSource, NewPopulation and NewLazyEnv, model replicas
//     excluded: ≤ N·1 B (the part table) + U·12 B (the id-sorted drop
//     table) + 1 MB. Sample counts are derived per id, not stored.
//   - Allocated by that construction: ≤ 18 B per client — chiefly the three
//     n-entry int32 permutation scratches (part order, unstable choice,
//     evaluation panel), 12 B, on top of what is retained.
//   - Allocated by the run's first tier partition: ≤ N·4 B + 2 MB — the
//     radix sort's one int32 id array, plus its histograms and pair
//     buffers. The profile is a function the partition calls; no latency
//     is stored.
//   - Retained by that partition: ≤ N·4 B + 1 MB — the id array, which
//     Members keeps for the run. No id → tier table is kept.
//
// It logs each owner's share of the set-up peak (construction plus the
// partition on top of it), then runs FedAT at that scale to check the
// population stays lazy.
func TestDerivedPopulationFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-client run; skipped in -short")
	}
	const n, unstable = 1_000_000, 100_000
	const mb = 1 << 20
	dcfg := dataset.Config{
		Name: "hugelike", NumClients: n, Classes: 10, SamplesPerClient: 24,
		ClassesPerClient: 2, Seed: 1, ImgC: 1, ImgH: 6, ImgW: 6,
		Signal: 0.3, Noise: 1.0,
	}
	ccfg := simnet.ClusterConfig{
		NumClients: n, NumUnstable: unstable, DropHorizon: 20000,
		SecPerBatch: 0.05, UpBW: 1 << 20, DownBW: 1 << 20, ServerBW: 16 << 20,
		Seed: 1,
	}
	rcfg := RunConfig{
		Rounds: 3, ClientsPerRound: 10, LocalEpochs: 1, BatchSize: 10,
		LearningRate: 0.02, NumTiers: 5, EvalEvery: 1,
		Seed: 1,
	}
	factory := baseSourceCase(1).factory

	var (
		src *dataset.Source
		pop *simnet.Population
		env *Env
		err error
	)
	srcLive, srcAlloc := heapDelta(func() { src, err = dataset.NewSource(dcfg) })
	if err != nil {
		t.Fatal(err)
	}
	popLive, popAlloc := heapDelta(func() { pop, err = simnet.NewPopulation(ccfg) })
	if err != nil {
		t.Fatal(err)
	}
	envLive, envAlloc := heapDelta(func() { env, err = NewLazyEnv(src, pop, factory, rcfg) })
	if err != nil {
		t.Fatal(err)
	}
	// The replicas are model-sized, not population-sized: price the same
	// number built the same way and take them out of the environment's row.
	var reps []*Client
	repLive, repAlloc := heapDelta(func() {
		for range env.replicas {
			reps = append(reps, &Client{Net: factory(env.Cfg.Seed), Opt: opt.NewAdam(env.Cfg.LearningRate)})
		}
	})
	envLive, envAlloc = envLive-repLive, envAlloc-repAlloc
	var tiers *tiering.Tiers
	partLive, partAlloc := heapDelta(func() { tiers, err = profileTiers(env) })
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(reps)
	runtime.KeepAlive(tiers)

	live := srcLive + popLive + envLive
	alloc := srcAlloc + popAlloc + envAlloc
	peak := live + partAlloc
	// At the set-up peak each constructor holds what it retained, and the
	// partition everything it allocated.
	for _, o := range []struct {
		owner              string
		live, alloc, share int64
	}{
		{"dataset.Source", srcLive, srcAlloc, srcLive},
		{"simnet.Population", popLive, popAlloc, popLive},
		{"fl.Env (no replicas)", envLive, envAlloc, envLive},
		{"first tier partition", partLive, partAlloc, partAlloc},
	} {
		t.Logf("%-21s live %6.2f MB, allocated %6.2f MB (%5.2f B/client), %5.1f%% of the %.1f MB set-up peak",
			o.owner, float64(o.live)/mb, float64(o.alloc)/mb, float64(o.alloc)/n, 100*float64(o.share)/float64(peak), float64(peak)/mb)
	}
	if limit := int64(n*1 + unstable*12 + mb); live > limit {
		t.Errorf("construction retains %d B; want ≤ N·1 + U·12 + 1 MB = %d B", live, limit)
	}
	if perClient := float64(alloc) / n; perClient > 18 {
		t.Errorf("construction allocates %.2f B/client; want ≤ 18", perClient)
	}
	if limit := int64(n*4 + 2*mb); partAlloc > limit {
		t.Errorf("the first partition allocates %d B; want ≤ N·4 + 2 MB = %d B", partAlloc, limit)
	}
	if limit := int64(n*4 + mb); partLive > limit {
		t.Errorf("the first partition retains %d B; want ≤ N·4 + 1 MB = %d B", partLive, limit)
	}

	run := mustRun(t, "fedat", env)
	if run.GlobalRounds < rcfg.Rounds {
		t.Fatalf("1M-client run completed only %d/%d global rounds", run.GlobalRounds, rcfg.Rounds)
	}
	if got := pop.Materialized(); got >= n/100 {
		t.Fatalf("run materialized %d of %d runtimes; the population should stay lazy", got, n)
	}
}
