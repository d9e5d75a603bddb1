// Package repro's top-level benchmarks regenerate every table and figure of
// the paper at the tiny preset — one bench per artifact, so
//
//	go test -bench=. -benchmem
//
// exercises the full harness. DESIGN.md maps each bench to its paper
// artifact; run cmd/fedsim with -preset medium/paper for report-quality
// numbers.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/testutil"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		experiments.ClearCache() // honest timing: no memoized runs
		if _, err := experiments.RunByID(id, experiments.Tiny); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates paper Table 1 (accuracy + variance, 5 methods
// × 7 dataset configurations).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates paper Table 2 (bytes to target accuracy).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFigure2 regenerates paper Figure 2 (convergence timelines +
// time-to-target bars).
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFigure3 regenerates paper Figure 3 (non-IID level sweep).
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFigure4 regenerates paper Figure 4 (accuracy vs uploaded bytes).
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFigure5 regenerates paper Figure 5 (compression precision sweep).
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFigure6 regenerates paper Figure 6 (weighted vs uniform
// aggregation).
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFigure7 regenerates paper Figure 7 (large-scale FEMNIST, six
// methods including ASO-Fed).
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFigure8 regenerates paper Figure 8 (Reddit LSTM accuracy/loss).
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFigure9 regenerates paper Figure 9 (client participation sweep).
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFigure10 regenerates paper Figure 10 (tier-size distributions).
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkSchedulerWorkers measures the experiment scheduler's parallel
// dispatch: the same Figure 6 cell batch with one worker vs GOMAXPROCS
// workers. Reports are byte-identical either way (see
// internal/experiments/scheduler_test.go); only wall-clock changes.
func BenchmarkSchedulerWorkers(b *testing.B) {
	run := func(b *testing.B, workers int) {
		experiments.SetWorkers(workers)
		defer experiments.SetWorkers(0)
		for i := 0; i < b.N; i++ {
			experiments.ClearCache()
			if _, err := experiments.RunByID("fig6", experiments.Tiny); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// ---------------------------------------------------------------------------
// Ablation benches for the design choices DESIGN.md calls out.

func benchEnv(b testing.TB, c codec.Codec, seed uint64) *fl.Env {
	b.Helper()
	fed, err := dataset.FashionLike(15, 2, dataset.ScaleSmall, seed)
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := simnet.NewCluster(simnet.ClusterConfig{
		NumClients: 15, NumUnstable: 1, DropHorizon: 3000,
		SecPerBatch: 0.5, UpBW: 1 << 20, DownBW: 1 << 20, ServerBW: 16 << 20,
		Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	factory := func(s uint64) *nn.Network {
		return nn.NewMLP(rng.New(s), fed.InDim, 16, fed.Classes)
	}
	env, err := fl.NewEnv(fed, cluster, factory, fl.RunConfig{
		Rounds: 20, ClientsPerRound: 5, LocalEpochs: 2, BatchSize: 8,
		Lambda: 0.4, LearningRate: 0.005, NumTiers: 5,
		Codec: c, EvalEvery: 5, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// benchRun executes one method repeatedly over a reusable bench
// environment: the env is built once outside the timed region and reset
// between iterations, so the measurement is the run itself — training,
// aggregation, simulation — not dataset generation. (The environment builds
// its cohort-sized pool of training replicas on the first iteration's
// dispatches; that one-off cost is amortized over b.N like pool growth.)
// TestEnvReuseDeterministic pins that every iteration is bit-identical to
// a run on a freshly built env.
func benchRun(b *testing.B, m fl.Method, c codec.Codec, seed uint64) {
	b.Helper()
	env := benchEnv(b, c, seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.ResetState()
		if _, err := m.Run(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMethod measures one full run of every registry method at the
// tiny-scale environment — the per-method perf trajectory CI records into
// BENCH_fl.json — plus the composed async-family variants that exist only
// as aggregation specs (DESIGN.md §1g): the per-update staleness fold and
// the asyncsgd server step, both through the fedbuff buffered pacer.
func BenchmarkMethod(b *testing.B) {
	run := func(name string, m fl.Method) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			benchRun(b, m, codec.Raw{}, 7)
		})
	}
	for _, name := range fl.MethodNames() {
		run(name, fl.Methods[name])
	}
	for _, c := range []struct{ name, agg string }{
		{"fedasync-fedbuff", "fedasync:poly:0.5"},
		{"asyncsgd-fedbuff", "asyncsgd:poly:0.5"},
	} {
		m, err := fl.Compose("fedasync", "", "fedbuff", c.agg, c.name)
		if err != nil {
			b.Fatal(err)
		}
		run(c.name, m)
	}
}

// bytesPerRun reports the mean heap bytes allocated per call of f, after a
// warm-up call has grown pools and scratch to steady-state shape.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestMethodRunAllocBudget pins the steady-state heap traffic of one full
// method run — the exact workload BenchmarkMethod times — under explicit
// bytes-per-op and allocs-per-op ceilings. The zero-alloc hot path brought
// fedavg from ~15.5 MB and ~14k allocs per run down to ~0.23 MB and ~550;
// the ceilings sit ~2x above current steady state, so normal drift passes
// but any reintroduced per-round model-sized allocation (1786 params ×
// 8 bytes × clients × rounds blows the budget immediately) fails here with
// an attributable number instead of waiting for the CI bench gate.
func TestMethodRunAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race instruments allocations; budgets are meaningless")
	}
	if testing.Short() {
		t.Skip("full method runs in -short")
	}
	budgets := []struct {
		method    string
		maxBytes  uint64
		maxAllocs float64
	}{
		{"fedavg", 500_000, 1100},
		{"fedat", 1_000_000, 2600},
		{"fedasync", 1_500_000, 2600},
	}
	for _, bud := range budgets {
		t.Run(bud.method, func(t *testing.T) {
			env := benchEnv(t, codec.Raw{}, 7)
			run := func() {
				env.ResetState()
				if _, err := fl.Run(bud.method, env); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm up pools and caches
			if got := bytesPerRun(3, run); got > bud.maxBytes {
				t.Errorf("%s allocates %d bytes per run, budget %d", bud.method, got, bud.maxBytes)
			}
			if got := testing.AllocsPerRun(3, run); got > bud.maxAllocs {
				t.Errorf("%s makes %.0f allocs per run, budget %.0f", bud.method, got, bud.maxAllocs)
			}
		})
	}
}

// BenchmarkPopulation measures constructing an environment over a DERIVED
// population — dataset source, lazy population, fl.NewLazyEnv — at three
// population sizes up to one million clients. The custom bytes/client metric is the per-client
// footprint of what construction actually retains (prototype tables, size
// and part arrays, drop times); laziness holding means it stays a few
// dozen bytes flat while n grows 1000x, where the eager construction costs
// ~10KB per client before the first round starts. CI records the standard
// bytes-per-op column into BENCH_trajectory.json, so an accidental O(n)
// materialization shows up as a step in the 1M rung's trajectory.
func BenchmarkPopulation(b *testing.B) {
	for _, n := range []int{1_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			dcfg := dataset.Config{
				Name: "benchlike", NumClients: n, Classes: 10, SamplesPerClient: 24,
				ClassesPerClient: 2, Seed: 7, ImgC: 1, ImgH: 10, ImgW: 10,
				Signal: 0.34, Noise: 1.0,
			}
			ccfg := simnet.ClusterConfig{
				NumClients: n, NumUnstable: n / 10, DropHorizon: 20000,
				SecPerBatch: 1.0, UpBW: 1 << 20, DownBW: 1 << 20, ServerBW: 16 << 20,
				Seed: 7,
			}
			rcfg := fl.RunConfig{
				Rounds: 8, ClientsPerRound: 10, LocalEpochs: 1, BatchSize: 10,
				LearningRate: 0.01, NumTiers: 5, Seed: 7,
			}
			b.ReportAllocs()
			runtime.GC()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := dataset.NewSource(dcfg)
				if err != nil {
					b.Fatal(err)
				}
				pop, err := simnet.NewPopulation(ccfg)
				if err != nil {
					b.Fatal(err)
				}
				factory := func(s uint64) *nn.Network {
					return nn.NewMLP(rng.New(s), src.InDim(), 32, src.Classes())
				}
				if _, err := fl.NewLazyEnv(src, pop, factory, rcfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			perClient := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N) / float64(n)
			b.ReportMetric(perClient, "bytes/client")
		})
	}
}

// BenchmarkAblationFedATRun measures one full FedAT run end to end.
func BenchmarkAblationFedATRun(b *testing.B) {
	benchRun(b, fl.Methods["fedat"], codec.NewPolyline(4), 9)
}

// BenchmarkAblationCompression compares the per-run cost of the polyline
// channel against raw transmission (the codec CPU vs bytes tradeoff).
func BenchmarkAblationCompression(b *testing.B) {
	b.Run("polyline4", func(b *testing.B) {
		benchRun(b, fl.Methods["fedat"], codec.NewPolyline(4), 9)
	})
	b.Run("raw", func(b *testing.B) {
		benchRun(b, fl.Methods["fedat"], codec.Raw{}, 9)
	})
}

// BenchmarkAblationDeltaEncoding compares absolute vs delta polyline
// payload sizes on trained weights.
func BenchmarkAblationDeltaEncoding(b *testing.B) {
	net := nn.NewMLP(rng.New(1), 100, 32, 10)
	w := net.WeightsCopy()
	abs := codec.NewPolyline(4)
	del := codec.NewPolylineDelta(4)
	b.Run("absolute", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			n = len(abs.Encode(w))
		}
		b.ReportMetric(float64(n), "payload-bytes")
	})
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			n = len(del.Encode(w))
		}
		b.ReportMetric(float64(n), "payload-bytes")
	})
}
