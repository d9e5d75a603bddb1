package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// The scale experiment: how far up does the simulated substrate go? The
// paper's evaluation stops at 500 clients because that is where a real
// testbed stops being affordable; the lazy population (clients exist as
// (seed, id) until dispatched, shards live in cohort-many scratch buffers,
// evaluation touches a fixed sample) makes the limit CPU, not memory. Each rung of an
// 8x ladder rebuilds the standard testbed at a larger population and runs
// the same bounded FedAT schedule; under -preset huge the top rung is one
// million simulated clients on a single core.

// scaleRounds bounds every rung's global-update budget: the experiment
// measures substrate cost against population size, not convergence, so a
// handful of rounds per rung is the whole point — the 64x rung repeats the
// SAME schedule over a 64x population.
const scaleRounds = 8

// scaleLadder is the population ladder {c, 8c, 64c} for preset client
// count c: tiny tops out at 960 (the golden pins that run), huge at
// exactly 1,000,000.
func scaleLadder(p Preset) []int {
	c := p.clients
	return []int{c, 8 * c, 64 * c}
}

// scaleConfigs assembles one rung's lazy inputs: the fashion-like small
// geometry on the standard virtual testbed (clusterConfig's parts, drop
// rate and link speeds), scaled to n clients.
func scaleConfigs(p Preset, n int) (dataset.Config, simnet.ClusterConfig, fl.RunConfig) {
	dcfg := dataset.Config{
		Name: "scalelike", NumClients: n, Classes: 10, SamplesPerClient: 24,
		ClassesPerClient: 2, Seed: p.Seed, ImgC: 1, ImgH: 10, ImgW: 10,
		Signal: 0.34, Noise: 1.0,
	}
	ccfg := simnet.ClusterConfig{
		NumClients:  n,
		NumUnstable: n / 10,
		DropHorizon: 20000,
		SecPerBatch: 1.0,
		UpBW:        1 << 20,
		DownBW:      1 << 20,
		ServerBW:    16 << 20,
		Seed:        p.Seed,
	}
	rcfg := fl.RunConfig{
		Rounds:          scaleRounds,
		ClientsPerRound: 10,
		LocalEpochs:     1,
		BatchSize:       10,
		LearningRate:    0.01,
		NumTiers:        5,
		EvalEvery:       2,
		Seed:            p.Seed,
		// The derived environment evaluates its fixed fl.DefaultEvalSample
		// panel: the table's accuracy column measures the panel at every
		// rung, so rungs are comparable to each other (not to
		// full-population runs).
	}
	return dcfg, ccfg, rcfg
}

// buildLazyEnv assembles the environment over a derived population for one
// rung, returning the population too so the table can report how much of it
// a run touched. It deliberately bypasses the run cache: the experiment IS
// the construction cost, and a cached 1M-client record would measure
// nothing.
func buildLazyEnv(p Preset, n int) (*fl.Env, *simnet.Population, error) {
	dcfg, ccfg, rcfg := scaleConfigs(p, n)
	src, err := dataset.NewSource(dcfg)
	if err != nil {
		return nil, nil, err
	}
	pop, err := simnet.NewPopulation(ccfg)
	if err != nil {
		return nil, nil, err
	}
	env, err := fl.NewLazyEnv(src, pop, scaleFactory(src), rcfg)
	return env, pop, err
}

// scaleFactory is the standard MLP stand-in (modelFactory's default
// branch) over the lazy source's geometry.
func scaleFactory(src *dataset.Source) fl.ModelFactory {
	return func(seed uint64) *nn.Network {
		return nn.NewMLP(rng.New(seed), src.InDim(), 32, src.Classes())
	}
}

// heapSampler records the live-heap peak across a run's folds and
// evaluations — the points where a lazy run's footprint crests (cohort
// shards just released, eval shards in flight). GC timing makes the value
// machine-dependent, so it feeds a data-only scalar, never the table. The
// heap is the process's, so the peak includes every cell running
// concurrently (fedsim -exp all), not only the rung.
type heapSampler struct{ peak uint64 }

func (h *heapSampler) OnEvent(ev fl.Event) {
	switch ev.(type) {
	case fl.TierFoldEvent, fl.EvalEvent:
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > h.peak {
			h.peak = m.HeapAlloc
		}
	}
}

// scale runs the population ladder and reports, per rung, everything
// deterministic about the run (update count, sampled accuracy, virtual
// time, uplink traffic, how much of the population was ever touched) in
// the table, with wall-clock and peak-heap measurements attached as
// data-only scalars for the machine-readable report.
func scale(p Preset) (*Report, error) {
	rep := &Report{ID: "scale", Title: "Million-client simnet: lazy population ladder"}
	m, err := fl.Lookup("fedat")
	if err != nil {
		return nil, err
	}

	tb := report.NewTable(
		fmt.Sprintf("fedat on scalelike(#2), %d global updates per rung, sampled evaluation", scaleRounds),
		"clients", "updates", "best acc", "virtual time", "client MB up", "touched", "touched frac")
	for _, n := range scaleLadder(p) {
		// The rung's population is built inside the gate, which exists to
		// bound that memory-heavy build, and wall_ms times the build and
		// the run from when the rung holds its slot, not its wait for one.
		sampler := &heapSampler{}
		var pop *simnet.Population
		var wall time.Duration
		run, err := simulateDirect(func() (*metrics.Run, error) {
			start := time.Now()
			defer func() { wall = time.Since(start) }()
			env, built, err := buildLazyEnv(p, n)
			if err != nil {
				return nil, err
			}
			pop = built
			return m.Run(env, sampler)
		})
		if err != nil {
			return nil, err
		}
		touched := pop.Materialized()
		tb.AddRow(
			report.Num(float64(n), fmt.Sprint(n)),
			report.Num(float64(run.GlobalRounds), fmt.Sprint(run.GlobalRounds)),
			accCell(run.BestAcc()),
			timeCell(run.EndTime),
			report.Numf("%.2f", float64(run.UpBytes)/1e6),
			report.Num(float64(touched), fmt.Sprint(touched)),
			report.Numf("%.4f", float64(touched)/float64(n)),
		)
		rep.Keep(fmt.Sprintf("n%d", n), run)
		rep.AddScalar(fmt.Sprintf("wall_ms/n%d", n), float64(wall.Milliseconds()), "ms")
		rep.AddScalar(fmt.Sprintf("peak_heap_mb/n%d", n), float64(sampler.peak)/(1<<20), "MB")
	}
	rep.AddTable(tb)

	rep.AddNote("Each rung rebuilds the standard virtual testbed (five delay parts, one unstable client per " +
		"ten, 1 MB/s client links, 16 MB/s shared server link) at 8x the previous population and runs the same " +
		fmt.Sprint(scaleRounds) + "-update FedAT schedule over a LAZY environment: a client is a (seed, id) " +
		"pair until a cohort dispatch derives its speed, delays, drop time and data shard from labeled RNG " +
		"streams — bit-identical to the eager construction (the fl equivalence tests pin this) — and the shard " +
		"is released when the round folds. Steady-state memory is O(cohort + model) rather than O(population): " +
		"'touched' counts how many of the n clients were ever materialized, so its fraction falling with n is " +
		"the laziness actually working. Accuracy is measured on the evaluator's fixed deterministic sample, " +
		"comparable across rungs. Wall-clock and peak-heap figures ride along as data-only scalars (JSON/CSV); " +
		"they are machine-dependent, so the pinned text report carries only the deterministic columns. Under " +
		"-preset huge the top rung is 1,000,000 clients; at that scale the fl memory ledger " +
		"(TestDerivedPopulationFootprint) holds each set-up owner's bytes to a per-client formula.")
	return rep, nil
}
