// Package repro's top-level benchmarks are the two CI records into
// BENCH_baseline.json / BENCH_trajectory.json (ci/bench_gate.py):
// BenchmarkMethod, one full run per registry method on a small reusable
// environment, and BenchmarkPopulation, environment construction over a
// derived population up to one million clients. The end-to-end workloads and
// the per-layer ledger live in bench/ (BENCHMARK.json); report-quality
// experiment numbers come from cmd/fedsim.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/testutil"
)

// benchEnv builds the small environment BenchmarkMethod and
// TestMethodRunAllocBudget share.
func benchEnv(b testing.TB) *fl.Env {
	b.Helper()
	const seed = 7
	fed, err := dataset.FashionLike(15, 2, dataset.ScaleSmall, seed)
	if err != nil {
		b.Fatal(err)
	}
	pop, err := simnet.NewPopulation(simnet.ClusterConfig{
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
	env, err := fl.NewEnv(fed, pop, factory, fl.RunConfig{
		Rounds: 20, ClientsPerRound: 5, LocalEpochs: 2, BatchSize: 8,
		Lambda: 0.4, LearningRate: 0.005, NumTiers: 5,
		Codec: codec.Raw{}, EvalEvery: 5, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// benchRun executes one method repeatedly over a reusable bench
// environment: the env is built once outside the timed region and reset
// between iterations, so the measurement is the run itself — training,
// aggregation, simulation — not dataset generation, and not the model
// replicas, which fl.NewEnv builds with the environment. (The replicas' and
// member slots' scratch grows on the first iteration's dispatches; that
// one-off cost is amortized over b.N like pool growth.)
// TestEnvReuseDeterministic pins that every iteration is bit-identical to
// a run on a freshly built env.
func benchRun(b *testing.B, m fl.Method) {
	b.Helper()
	env := benchEnv(b)
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
// BENCH_trajectory.json — plus the composed async-family variants no
// registry method uses (DESIGN.md §1g): the per-update staleness fold and
// the asyncsgd server step, both through the fedbuff buffered pacer at the
// default poly:0.5 discount.
func BenchmarkMethod(b *testing.B) {
	run := func(name string, m fl.Method) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			benchRun(b, m)
		})
	}
	for _, name := range fl.MethodNames() {
		run(name, fl.Methods[name])
	}
	for _, c := range []struct{ name, agg string }{
		{"fedasync-fedbuff", "fedasync"},
		{"asyncsgd-fedbuff", "asyncsgd"},
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
			env := benchEnv(t)
			run := func() {
				env.ResetState()
				if _, err := fl.Methods[bud.method].Run(env); err != nil {
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
// heap construction allocates: the one-byte part table, the drop table and
// the int32 permutation scratches the shared-stream draws need
// (TestDerivedPopulationFootprint itemizes them); laziness holding means it
// stays under 18 bytes from 100k clients up while n grows, where the eager
// construction costs ~10KB per client before the first round starts. CI records the standard
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
