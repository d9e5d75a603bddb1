package fl

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/tiering"
)

// DefaultEvalSample is the lazy evaluator's sample size when
// RunConfig.EvalSample is unset. Populations at or below it are evaluated
// in full — which is why a small lazy run is bit-identical to the eager Env
// (TestLazyEnvMatchesEagerRun pins that).
const DefaultEvalSample = 256

// evalSampleName labels the RNG stream that draws the evaluation sample,
// hashed the same way method streams are so it collides with nothing.
const evalSampleName = "evalsample"

// LazyEnv is the O(cohort + model) counterpart of Env: a client exists as
// (seed, id) until the engine dispatches it. Its simulated runtime is
// materialized on first touch (simnet.Population), its dataset shard is
// synthesized at dispatch and released after the fold (dataset.Source), and
// its model replica, optimizer and RNG streams live in a small pool of
// workers bound to the cohort for exactly one round. Steady-state memory is
// the cohort plus a few model replicas, independent of the population size —
// the property the 1M-client preset depends on (a ceiling test asserts it).
//
// Everything the engine observes is bit-identical to the eager Env except
// evaluation, which measures a fixed deterministic sample of EvalSample
// clients instead of all N; at populations within the sample size the two
// environments produce byte-identical runs.
//
// Like Env, a LazyEnv is single-run-at-a-time: the worker pool and the
// population's materialization cache are not safe for concurrent runs.
type LazyEnv struct {
	Src *dataset.Source
	Pop *simnet.Population
	Cfg RunConfig

	// links is a Cluster shell carrying only the shared server links — the
	// only cluster state runCohort touches besides per-client runtimes.
	links   *simnet.Cluster
	factory ModelFactory
	w0      []float64
	shapes  []codec.ShapeInfo
	root    *rng.RNG // never advanced; anchors per-client stream derivation

	workers []*lazyWorker
	group   []*Client // cohort-resolution scratch, reused across rounds
	eval    *lazyEvaluator
}

// lazyWorker is one pooled client slot: the durable training machinery
// (model replica, optimizer, batch scratch inside Client) plus value-stored
// RNG streams the bind step retargets per client. Storing the streams by
// value keeps acquisition allocation-free.
type lazyWorker struct {
	c     Client
	sched rng.RNG
	dp    rng.RNG
}

// NewLazyEnv wires a lazy dataset source to a lazy population. The two must
// agree on the population size.
func NewLazyEnv(src *dataset.Source, pop *simnet.Population, factory ModelFactory, cfg RunConfig) (*LazyEnv, error) {
	if src.NumClients() != pop.NumClients() {
		return nil, fmt.Errorf("fl: population has %d clients, dataset has %d", pop.NumClients(), src.NumClients())
	}
	cfg = cfg.withDefaults()

	ref := factory(cfg.Seed)
	shapes := make([]codec.ShapeInfo, 0, len(ref.ParamShapes()))
	for _, s := range ref.ParamShapes() {
		shapes = append(shapes, codec.ShapeInfo{Name: s.Name, Dims: s.Dims})
	}

	le := &LazyEnv{
		Src:     src,
		Pop:     pop,
		Cfg:     cfg,
		links:   pop.Links(),
		factory: factory,
		w0:      ref.WeightsCopy(),
		shapes:  shapes,
		root:    rng.New(cfg.Seed),
	}
	le.eval = newLazyEvaluator(src, factory, cfg)
	return le, nil
}

// InitialWeights returns a copy of w0.
func (le *LazyEnv) InitialWeights() []float64 {
	out := make([]float64, len(le.w0))
	copy(out, le.w0)
	return out
}

// Shapes returns the model's parameter-block shapes (for the codec).
func (le *LazyEnv) Shapes() []codec.ShapeInfo { return le.shapes }

// ResetState restores link and per-client stream state so one LazyEnv can
// run several methods back-to-back under identical conditions — the lazy
// mirror of Env.ResetState. (Optimizer state needs no reset: TrainLocal
// resets it at every round entry.)
func (le *LazyEnv) ResetState() {
	le.links.Reset()
	le.Pop.Reset()
}

// newWorker builds one pooled client slot.
func (le *LazyEnv) newWorker() *lazyWorker {
	var o opt.Optimizer
	if le.Cfg.UseSGD {
		o = opt.NewSGD(le.Cfg.LearningRate)
	} else {
		o = opt.NewAdam(le.Cfg.LearningRate)
	}
	w := &lazyWorker{}
	w.c.Net = le.factory(le.Cfg.Seed) // same init everywhere; server state rules
	w.c.Opt = o
	w.c.scheduleRNG = &w.sched
	w.c.dpRNG = &w.dp
	return w
}

// bind points a pooled worker at client id: synthesize the shard,
// materialize the runtime, and rederive the labeled RNG streams — exactly
// the state NewEnv builds per client up front. Stream derivation is pure in
// (seed, id), so a rebound worker is indistinguishable from a permanent
// client (the lazy-vs-eager run test pins this end to end).
func (le *LazyEnv) bind(w *lazyWorker, id int) *Client {
	w.c.ID = id
	w.c.Data = le.Src.Client(id)
	w.c.Runtime = le.Pop.Materialize(id)
	a := le.Pop.AttackOf(id)
	a.Classes = le.Src.Classes() // simnet can't know the label space
	w.c.Attack = a
	w.sched = le.root.SplitLabeledValue(uint64(scheduleStreamBase + id))
	w.dp = le.root.SplitLabeledValue(uint64(dpStreamBase + id))
	return &w.c
}

// trainCohort is the lazy Dispatch body: bind a worker per cohort member,
// run the shared round logic, release the shards. The simulated fabric
// delivers synchronously, so one cohort is in flight at a time and the pool
// never grows past the largest cohort. Surviving results carry pooled comm
// buffers and dropped results are never read after delivery, so workers are
// reusable the moment this returns.
func (le *LazyEnv) trainCohort(sel []int, start float64, global []float64, comm *Comm, lc LocalConfig) ([]TrainResult, error) {
	for len(le.workers) < len(sel) {
		le.workers = append(le.workers, le.newWorker())
	}
	if cap(le.group) < len(sel) {
		le.group = make([]*Client, len(sel))
	}
	group := le.group[:len(sel)]
	for i, id := range sel {
		group[i] = le.bind(le.workers[i], id)
	}
	results, err := runCohort(group, le.links, start, global, comm, lc)
	for _, w := range le.workers[:len(sel)] {
		w.c.Data = nil // the shard dies with the round
	}
	return results, err
}

// profileTiers is ProfileTiers' lazy twin: identical latency arithmetic and
// mis-profiling corruption, answered from the population's pure queries and
// the source's split arithmetic instead of materialized clients.
func (le *LazyEnv) profileTiers() (*tiering.Tiers, error) {
	lc := LocalConfig{Epochs: le.Cfg.LocalEpochs, BatchSize: le.Cfg.BatchSize}
	lat := make([]float64, le.Src.NumClients())
	lo, hi := 1e300, 0.0
	for i := range lat {
		lat[i] = le.Pop.ExpectedLatency(i, lc.Steps(le.Src.NumTrain(i)))
		if lat[i] < lo {
			lo = lat[i]
		}
		if lat[i] > hi {
			hi = lat[i]
		}
	}
	if f := le.Cfg.MisTierFrac; f > 0 {
		r := rng.New(le.Cfg.Seed).SplitLabeled(hashName("mistier"))
		n := int(f * float64(len(lat)))
		for _, i := range r.Choose(len(lat), n) {
			lat[i] = r.Uniform(lo, hi) // profile scrambled within range
		}
	}
	return tiering.Partition(lat, le.Cfg.NumTiers)
}

// Fabric returns a fresh simulated fabric over the lazy environment.
func (le *LazyEnv) Fabric() Fabric { return le.FabricOn(simnet.New()) }

// FabricOn returns a simulated fabric over the lazy environment driven by
// an externally owned clock — the lazy mirror of Env.FabricOn.
func (le *LazyEnv) FabricOn(c simnet.Clock) Fabric { return &lazyFabric{Clock: c, env: le} }

// lazyFabric drives methods over the lazy environment: identical engine
// surface to simFabric, with dispatch binding pooled workers and every
// pure query answered without materializing clients.
type lazyFabric struct {
	simnet.Clock
	env *LazyEnv
}

func (f *lazyFabric) Dataset() string { return f.env.Src.Name() }
func (f *lazyFabric) NumClients() int { return f.env.Src.NumClients() }
func (f *lazyFabric) SampleCount(id int) int {
	return f.env.Src.NumTrain(id)
}
func (f *lazyFabric) Available(id int, now float64) bool {
	return f.env.Pop.Available(id, now)
}
func (f *lazyFabric) NextAvailable(id int, now float64) float64 {
	return f.env.Pop.NextOnline(id, now)
}
func (f *lazyFabric) InitialWeights() []float64 { return f.env.InitialWeights() }
func (f *lazyFabric) Shapes() []codec.ShapeInfo { return f.env.shapes }

func (f *lazyFabric) Partition(RunConfig) (*tiering.Tiers, error) {
	return f.env.profileTiers()
}

func (f *lazyFabric) Repartition(*tiering.Tiers) {}

// SyncDriven mirrors simFabric.SyncDriven: true only under a clock that
// distinguishes synchronization events (a MultiClock child).
func (f *lazyFabric) SyncDriven() bool {
	_, ok := f.Clock.(simnet.SyncScheduler)
	return ok
}

// AtSync mirrors simFabric.AtSync: fold sites reach the clock's
// synchronization capability when present, At otherwise.
func (f *lazyFabric) AtSync(t float64, fn func()) {
	if s, ok := f.Clock.(simnet.SyncScheduler); ok {
		s.AtSync(t, fn)
		return
	}
	f.Clock.At(t, fn)
}

func (f *lazyFabric) Dispatch(comm *Comm, cohort []int, now float64, global []float64, lc LocalConfig, deliver func([]TrainResult, error)) {
	deliver(f.env.trainCohort(cohort, now, global, comm, lc))
}

func (f *lazyFabric) Probe(comm *Comm, ids []int, now float64, w []float64, replyBytes int) (float64, error) {
	return probeSweep(comm, f.env.links, len(ids), func(i int) *simnet.ClientRuntime {
		return f.env.Pop.Materialize(ids[i])
	}, now, w, replyBytes)
}

func (f *lazyFabric) Evaluate(w []float64) (Result, bool) {
	return f.env.eval.Evaluate(w), true
}
func (f *lazyFabric) EvaluateSubset(w []float64, ids []int) float64 {
	return f.env.eval.EvaluateSubset(w, ids)
}

// ---------------------------------------------------------------------------
// Sampled evaluation

// lazyEvaluator is the Evaluator over a lazy source: shards are synthesized
// per evaluation and dropped immediately, so an eval pass costs O(1) memory
// in the population size. It measures a fixed deterministic client sample
// (RunConfig.EvalSample, default DefaultEvalSample); when the sample covers
// the whole population the ids run 0..N-1 and the result is bit-identical
// to the eager Evaluator's.
type lazyEvaluator struct {
	src  *dataset.Source
	ids  []int
	nets []*nn.Network

	// Per-sampled-client scratch reused across Evaluate calls. Evaluate is
	// not safe for concurrent use (the run loops serialize evaluation).
	accs    []float64
	correct []int
	totals  []int
	losses  []float64
}

// evalSampleIDs picks the evaluation sample: the full population in id
// order when it fits, otherwise EvalSample ids drawn once from a dedicated
// labeled stream and sorted — fixed for the whole run so the accuracy
// series measures one consistent panel.
func evalSampleIDs(n int, cfg RunConfig) []int {
	k := cfg.EvalSample
	if k <= 0 {
		k = DefaultEvalSample
	}
	if k >= n {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	r := rng.New(cfg.Seed).SplitLabeled(hashName(evalSampleName))
	// Choose retains an O(N) permutation; copy the prefix so the sample is
	// all that survives.
	ids := append([]int(nil), r.Choose(n, k)...)
	sort.Ints(ids)
	return ids
}

func newLazyEvaluator(src *dataset.Source, factory ModelFactory, cfg RunConfig) *lazyEvaluator {
	ids := evalSampleIDs(src.NumClients(), cfg)
	workers := runtime.GOMAXPROCS(0)
	if len(ids) < workers {
		workers = len(ids)
	}
	if workers < 1 {
		workers = 1
	}
	e := &lazyEvaluator{src: src, ids: ids}
	for i := 0; i < workers; i++ {
		e.nets = append(e.nets, factory(cfg.Seed))
	}
	return e
}

// Evaluate runs the model on every sampled client's test split — the eager
// Evaluator's strided-parallel structure, with each worker synthesizing the
// shard it is about to measure and dropping it right after.
func (e *lazyEvaluator) Evaluate(w []float64) Result {
	if len(e.accs) != len(e.ids) {
		e.accs = make([]float64, len(e.ids))
		e.correct = make([]int, len(e.ids))
		e.totals = make([]int, len(e.ids))
		e.losses = make([]float64, len(e.ids))
	}
	accs, correct, totals, losses := e.accs, e.correct, e.totals, e.losses
	for i := range accs {
		accs[i], correct[i], totals[i], losses[i] = 0, 0, 0, 0
	}

	var wg sync.WaitGroup
	nw := len(e.nets)
	wg.Add(nw)
	for wk := 0; wk < nw; wk++ {
		go func(wk int) {
			defer wg.Done()
			net := e.nets[wk]
			net.SetWeights(w)
			for i := wk; i < len(e.ids); i += nw {
				d := e.src.Client(e.ids[i])
				if d.NumTest() == 0 {
					continue
				}
				cor, loss := net.Eval(d.TestX, d.TestY)
				correct[i] = cor
				totals[i] = d.NumTest()
				losses[i] = loss * float64(totals[i])
				accs[i] = float64(cor) / float64(totals[i])
			}
		}(wk)
	}
	wg.Wait()

	totCorrect, totSamples := 0, 0
	totLoss := 0.0
	for i := range e.ids {
		totCorrect += correct[i]
		totSamples += totals[i]
		totLoss += losses[i]
	}
	if totSamples == 0 {
		return Result{}
	}
	return Result{
		Acc:      float64(totCorrect) / float64(totSamples),
		Loss:     totLoss / float64(totSamples),
		Variance: metrics.Variance(accs),
	}
}

// EvaluateSubset measures the model on an explicit client subset (TiFL's
// per-tier accuracy collection), synthesizing each shard on demand.
func (e *lazyEvaluator) EvaluateSubset(w []float64, ids []int) float64 {
	net := e.nets[0]
	net.SetWeights(w)
	correct, total := 0, 0
	for _, id := range ids {
		d := e.src.Client(id)
		if d.NumTest() == 0 {
			continue
		}
		cor, _ := net.Eval(d.TestX, d.TestY)
		correct += cor
		total += d.NumTest()
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
