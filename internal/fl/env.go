package fl

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// RunConfig holds the hyperparameters shared by every method (§6) plus the
// method-specific knobs.
type RunConfig struct {
	Rounds          int // global update budget T
	ClientsPerRound int // |S| (10 in the paper)
	LocalEpochs     int // E (3 in the paper)
	BatchSize       int // 10 in the paper
	// Lambda is the proximal coefficient of Eq. 3. 0 inherits DefaultLambda
	// (the paper's 0.4); pass LambdaOff (any negative value) to explicitly
	// disable the proximal term for Prox methods. CLIs and experiments
	// inherit the default from here rather than re-declaring 0.4.
	Lambda       float64
	LearningRate float64

	NumTiers int // M (5 in the paper)

	// Codec compresses FedAT's uplink and downlink (§4.3); nil means
	// codec.Raw. Baselines always use Raw, matching the paper where only
	// FedAT compresses.
	Codec codec.Channel

	// Staleness parameterizes the async family's staleness discount g(s):
	// the weight function, its decay parameter, and hinge's flat region.
	// The zero value inherits poly with decay 0.5.
	Staleness StalenessConfig
	// AdaptiveLR scales each dispatch's local learning rate by the weight
	// function at the dispatch loop's last observed staleness, so chronic
	// stragglers take smaller local steps instead of only being discounted
	// at the fold. Off by default — an off run draws nothing, ships a zero
	// LRScale, and stays bit-identical to builds without the stage.
	AdaptiveLR bool

	// MisTierFrac corrupts this fraction of the profiled latencies before
	// tiering (clients land in arbitrary tiers) — the mis-profiling
	// scenario §2.1 argues FedAT tolerates but TiFL does not. 0 disables.
	MisTierFrac float64

	// EvalEvery evaluates the global model every this many global updates
	// (1 = every update).
	EvalEvery int
	// MaxSimTime stops a run after this much virtual time (0 = no limit).
	MaxSimTime float64

	// RetierEvery re-runs the tiering module every this many global updates
	// from EWMA-smoothed observed client response latencies (0 = static
	// tiers, the paper's one-shot §4 profiling). Re-tiering happens where a
	// tier partition is actually consumed: tier-paced loops, and
	// client-paced loops whose update rule routes by tier (eq5).
	// Synchronous pacing ignores the knob — the paper's baselines do not
	// re-profile — and a client-paced run over an untiered rule (FedAsync's
	// staleness, ASO-Fed) has no partition to re-tier, so the knob is
	// likewise inert there.
	RetierEvery int

	// DPClip > 0 enables the per-client differential-privacy stage on
	// every local update: clip the delta to this L2 norm, then add
	// Gaussian noise with per-coordinate stddev DPNoise·DPClip from each
	// client's dedicated labeled stream. Off by default — a DP-off run
	// draws nothing and stays byte-identical to builds without the stage.
	DPClip  float64
	DPNoise float64

	// BufferK is the "fedbuff" pacer's buffer size: the global model folds
	// once every K client arrivals (default ClientsPerRound).
	BufferK int

	Seed uint64
}

// DefaultLambda is the paper's proximal coefficient (§6): the single place
// the 0.4 default lives — withDefaults applies it, and the CLIs inherit it.
const DefaultLambda = 0.4

// LambdaOff explicitly disables the Eq. 3 proximal term for Prox methods
// (RunConfig.Lambda 0 means "use DefaultLambda", so disabling needs a
// sentinel).
const LambdaOff = -1.0

// Hyperparameters no caller varies, so constants rather than RunConfig
// fields; each is read at the one site that uses it (DESIGN.md §1h).
const (
	// tiflCredits and tiflInterval are TiFL's per-tier selection budget
	// and its accuracy-refresh period in rounds (Chai et al., taken as
	// given by the paper's §6 comparison).
	tiflCredits  = 20
	tiflInterval = 10
	// retierAlpha is the EWMA weight of each new latency observation under
	// RetierEvery; retierMargin the relative hysteresis band a smoothed
	// latency must clear beyond a tier boundary before the client migrates.
	retierAlpha  = 0.3
	retierMargin = 0.15
	// trimBeta is the "trimmed" rule's per-side trim fraction.
	trimBeta = 0.2
	// krumAdaptive asks robust.Krum for the standard (cohort-3)/2
	// byzantine count, resolved per fold from the cohort it sees.
	krumAdaptive = -1
	// asyncAlpha is the async family's server blend weight α (FedAsync's
	// mixing rate; asyncsgd's server step size).
	asyncAlpha = 0.6
)

func (c RunConfig) withDefaults() RunConfig {
	if c.Rounds <= 0 {
		c.Rounds = 100
	}
	if c.ClientsPerRound <= 0 {
		c.ClientsPerRound = 10
	}
	if c.LocalEpochs <= 0 {
		c.LocalEpochs = 3
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 10
	}
	if c.Lambda == 0 {
		// LambdaOff stays negative here so withDefaults is idempotent
		// (configs pass through it twice: NewEnv and RunOn); localConfig
		// clamps it to 0 at the point of use.
		c.Lambda = DefaultLambda
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.01
	}
	if c.NumTiers <= 0 {
		c.NumTiers = 5
	}
	if c.Codec == nil {
		c.Codec = codec.Raw{}
	}
	if c.Staleness.Func == "" {
		c.Staleness.Func = StaleFuncPoly
	}
	if c.Staleness.Alpha == 0 {
		// StaleExpOff (negative) passes through so withDefaults stays
		// idempotent (configs traverse it twice: NewEnv and RunOn);
		// StalenessConfig.Weight clamps it to exactly 0 at the point of
		// use — the LambdaOff pattern. An explicit 0 therefore survives
		// instead of being silently re-defaulted to 0.5.
		c.Staleness.Alpha = 0.5
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	if c.BufferK <= 0 {
		c.BufferK = c.ClientsPerRound
	}
	return c
}

// ModelFactory builds one model replica. Every call must produce the same
// architecture (identical flat-vector layout); the seed only varies the
// initialization.
type ModelFactory func(seed uint64) *nn.Network

// DefaultEvalSample is the evaluation panel size of an environment over a
// derived population (NewLazyEnv). A huge population cannot afford a
// full-population test pass every eval; a fixed deterministic panel keeps
// evaluation O(1) in N. Populations at or below it are evaluated in full —
// which is why a small derived run is bit-identical to the retained one
// (TestLazyEnvMatchesEagerRun pins that).
const DefaultEvalSample = 256

// shardSource is where an environment's client data lives: a retained
// *dataset.Federated hands out the shard it has held since construction
// and ignores dst, a *dataset.Source synthesizes the split the caller reads
// from (seed, id) into dst and returns dst. Callers pass a scratch shard
// they own — the replica's, whether it is training or evaluating — and may
// read the result until they next pass the same scratch. Training reads
// only the training split and evaluation only the test split, so each asks
// for that split alone.
type shardSource interface {
	NumTrain(id int) int
	TrainInto(dst *dataset.ClientData, id int) *dataset.ClientData
	TestInto(dst *dataset.ClientData, id int) *dataset.ClientData
}

// Env is the simulated environment a method runs on: client shards and a
// simnet.Population (runtimes plus the server's shared links) addressed by
// id, an evaluation harness and one pool of model replicas.
//
// Both constructors hold the population the same way: a client's runtime
// is (seed, id) until a dispatch or a probe materializes it, and the pure
// queries (availability, profiled latency) never do. They differ only in
// shard source and evaluation panel. NewEnv takes retained shards — every
// one built up front, the shape the paper-scale experiments use — and
// evaluates all N clients. NewLazyEnv takes a derived dataset — a shard is
// synthesized at dispatch into the scratch of the replica that trains it —
// whose steady-state memory and heap traffic are O(cohort + model)
// whatever N is (TestDerivedPopulationFootprint, TestEngineRoundByteCeiling),
// and evaluates a fixed panel of DefaultEvalSample clients. The two are
// bit-identical in everything the engine observes up to that panel
// (TestLazyEnvMatchesEagerRun).
//
// Either way the training machinery — model replica, optimizer, batch and
// shard scratch — belongs to the environment, not to a client. newEnv
// builds min(GOMAXPROCS, N) replicas and no others: a dispatch lends one
// to each cohort member for the length of its TrainLocal, and evaluation
// runs on the first of them, since on the simulated fabric evaluation and
// training never overlap. A replica carries nothing from one TrainLocal to
// the next (see Client), so which replica serves which member, or
// evaluates, cannot be observed.
//
// An Env is single-run-at-a-time: the replicas, the link reservations and
// the runtimes' delay streams are not safe for concurrent runs.
type Env struct {
	Eval *Evaluator
	Cfg  RunConfig

	dataset    string
	n, classes int
	shards     shardSource
	pop        *simnet.Population

	w0     []float64
	shapes []codec.ShapeInfo
	root   *rng.RNG // never advanced; anchors per-client stream derivation

	// replicas holds every model replica the environment owns, built in
	// newEnv; pool lends them to the training bodies of a dispatch.
	replicas []*Client
	pool     replicaPool
	// members and results hold one slot per position of the largest cohort
	// dispatched (see runCohort): the member's binding and its outcome,
	// which runCohort hands to deliver and the fabric clears after it.
	members []member
	results []TrainResult
	// train is the parallel body of every dispatch (trainAt), bound once;
	// received and lc are the inputs of the dispatch in flight it reads.
	train    func(i int)
	received []float64
	lc       LocalConfig
}

// replicaPool is the set of idle replicas a dispatch's training bodies
// borrow from. It is a LIFO: a serial run takes and returns the same
// replica every time, so only that one grows optimizer moments and layer
// scratch, where a FIFO would rotate through all of them.
type replicaPool struct {
	mu   sync.Mutex
	idle []*Client
}

func (p *replicaPool) get() *Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	return c
}

func (p *replicaPool) put(c *Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = append(p.idle, c)
}

// member is one cohort position's state for the dispatch in flight: the
// member's id, runtime and download arrival.
type member struct {
	id       int
	rt       *simnet.ClientRuntime
	downDone float64
}

// NewEnv wires a retained federated dataset to a population. The two must
// agree on the population size. Evaluation covers every client.
func NewEnv(fed *dataset.Federated, pop *simnet.Population, factory ModelFactory, cfg RunConfig) (*Env, error) {
	n := len(fed.Clients)
	if pop.NumClients() != n {
		return nil, fmt.Errorf("fl: population has %d clients, dataset has %d", pop.NumClients(), n)
	}
	return newEnv(fed.Name, n, fed.Classes, fed, pop, n, factory, cfg), nil
}

// NewLazyEnv wires a synthesizing dataset source to a population. The
// two must agree on the population size. Evaluation covers a fixed panel
// of DefaultEvalSample clients whose shards are synthesized per pass.
func NewLazyEnv(src *dataset.Source, pop *simnet.Population, factory ModelFactory, cfg RunConfig) (*Env, error) {
	if src.NumClients() != pop.NumClients() {
		return nil, fmt.Errorf("fl: population has %d clients, dataset has %d", pop.NumClients(), src.NumClients())
	}
	return newEnv(src.Name(), src.NumClients(), src.Classes(), src, pop, DefaultEvalSample, factory, cfg), nil
}

// newEnv is the one construction path: n clients of the named dataset,
// their shard source, the population, and the evaluation panel size. It is
// also the one place a simulated environment builds model replicas and
// optimizers: min(GOMAXPROCS, n) of them, the most a dispatch can train
// at once.
func newEnv(name string, n, classes int, shards shardSource, pop *simnet.Population, panel int, factory ModelFactory, cfg RunConfig) *Env {
	cfg = cfg.withDefaults()
	replicas := make([]*Client, parallel.Workers(n))
	for i := range replicas {
		// Adam is the paper's local solver (§6); the same init everywhere,
		// server state rules.
		replicas[i] = &Client{Net: factory(cfg.Seed), Opt: opt.NewAdam(cfg.LearningRate)}
	}
	ref := replicas[0].Net // untrained: w0 and the shapes are read off it
	ids := evalSampleIDs(n, panel, cfg.Seed)
	e := &Env{
		Eval:     &Evaluator{ids: ids, shard: shards.TestInto, reps: replicas[:min(len(replicas), len(ids))]},
		Cfg:      cfg,
		dataset:  name,
		n:        n,
		classes:  classes,
		shards:   shards,
		pop:      pop,
		w0:       ref.WeightsCopy(),
		shapes:   ref.ParamShapes(),
		root:     rng.New(cfg.Seed),
		replicas: replicas,
		pool:     replicaPool{idle: slices.Clone(replicas)},
	}
	e.train = e.trainAt
	return e
}

// InitialWeights returns a copy of w0.
func (e *Env) InitialWeights() []float64 {
	out := make([]float64, len(e.w0))
	copy(out, e.w0)
	return out
}

// Shapes returns the model's parameter-block shapes (for the codec).
func (e *Env) Shapes() []codec.ShapeInfo { return e.shapes }

// ResetState rewinds link reservations and delay streams so one Env can
// run several methods back-to-back under identical conditions. Replicas
// need no reset: TrainLocal restarts everything they carry at every round
// entry.
func (e *Env) ResetState() { e.pop.Reset() }

// trainMember is one training body of a dispatch: borrow an idle replica,
// bind it to cohort member m, run the member's local round into out (a
// buffer of the run's weight pool, which the result then holds), and return
// the replica to the pool. Binding fetches the shard (or synthesizes it
// into the replica's scratch, overwriting the previous binding's) and
// rederives the labeled RNG streams; both are pure in (seed, id), so a
// borrowed replica is indistinguishable from a client that owned its data
// and replica forever. Distinct members may train concurrently: each body
// writes only its replica and its own slot.
func (e *Env) trainMember(m *member, out, global []float64, lc LocalConfig) TrainResult {
	c, id := e.pool.get(), m.id
	c.ID = id
	c.Data = e.shards.TrainInto(&c.shard, id)
	c.Attack = m.rt.Attack
	c.Attack.Classes = e.classes // simnet can't know the label space
	c.scheduleRNG = e.root.SplitLabeledValue(uint64(scheduleStreamBase + id))
	c.dpRNG = e.root.SplitLabeledValue(uint64(dpStreamBase + id))
	c.wOut = out
	w, steps := c.TrainLocal(global, lc)
	res := TrainResult{Client: id, Weights: w, N: c.Data.NumTrain(), Steps: steps}
	// The replica keeps neither the result buffer nor the shard: a
	// synthesized shard is only valid until the replica's next binding.
	c.wOut, c.Data = nil, nil
	e.pool.put(c)
	return res
}

// ---------------------------------------------------------------------------
// Communication accounting

// Comm applies a codec to every model exchange and tallies the bytes, which
// is both the lossy channel (§4.3) and the measurement for Table 2 /
// Figure 4. The codec is a codec.Channel (polyline, raw), so no payload is
// ever materialized: numerics and byte accounting are identical to the real
// Encode/Decode by the interface's contract. It also holds the simulator's
// uploads in flight: under polyline an upload is its quantized integers in
// a fixed-point slot (codec.Fixed: 16 bits a value plus a short list of the
// values wider than that), and becomes a float64 vector only when the
// server reads it (Receive). A Comm belongs to its run's engine goroutine;
// only the weight pool it hands out (Pool) may be used from other
// goroutines.
type Comm struct {
	channel     codec.Channel
	headerBytes int
	Up, Down    int64

	// pool recycles receiver-side weight buffers across rounds and cohorts
	// (see tensor.Pool for the ownership contract). Sized lazily from the
	// first transmitted vector.
	pool *tensor.Pool

	// fixed is the codec when it is polyline, whose uploads can wait in
	// flight as fixed point. Slot id k is slots[k-1]; free lists the idle
	// ids, so the slots grow to the most uploads ever in flight at once and
	// are then reused.
	fixed *codec.Polyline
	slots []codec.Fixed
	free  []int32
}

// NewComm builds the channel for one run.
func NewComm(c codec.Channel, shapes []codec.ShapeInfo) *Comm {
	fixed, _ := c.(*codec.Polyline)
	return &Comm{channel: c, headerBytes: codec.ModelHeaderBytes(shapes), fixed: fixed}
}

// Pool returns the run's weight pool for length-n vectors, creating it on
// first use. The pool itself is safe for concurrent Get/Put: the live
// fabric's collector goroutines decode arrivals into buffers drawn from it,
// and the engine's Release calls after each fold hand them back.
func (cm *Comm) Pool(n int) *tensor.Pool {
	if cm.pool == nil || cm.pool.Size() != n {
		cm.pool = tensor.NewPool(n)
	}
	return cm.pool
}

// TransmitPooled is transmit for callers outside the package; its error is
// always nil.
func (cm *Comm) TransmitPooled(w []float64, uplink bool) ([]float64, int, error) {
	out, size := cm.transmit(w, uplink)
	return out, size, nil
}

// transmit passes w through the lossy channel in the given direction,
// returning the weights the receiver reconstructs — in a buffer drawn from
// the run's weight pool — and the marshalled message size in bytes, which
// the byte counters accumulate. One pass writes the reconstruction and
// returns the size the encoder would have produced. The returned slice is
// owned by the caller until it hands it back with Release; in steady state
// no allocation happens.
func (cm *Comm) transmit(w []float64, uplink bool) ([]float64, int) {
	out := cm.Pool(len(w)).Get()
	size := cm.headerBytes + cm.channel.Transmit(out, w)
	cm.CountControl(int64(size), uplink)
	return out, size
}

// upload is the simulated uplink of a trained result: it passes r.Weights
// through the channel, charges the bytes, and leaves in r what is in flight.
// Under polyline that is a fixed-point slot (r.Weights nil), unless some
// weight overflows int32; otherwise it is transmit's reconstruction. It
// returns the message size. upload takes ownership of r.Weights, which must
// be a buffer of the run's weight pool: once the slot is written, or
// transmit has copied it, the trained buffer goes back to the pool, so a
// result in flight holds a slot or one pooled reconstruction and never the
// buffer it was trained into as well.
func (cm *Comm) upload(r *TrainResult) int {
	trained := r.Weights
	if cm.fixed != nil {
		slot := cm.takeSlot()
		if n, ok := cm.fixed.TransmitFixed(&cm.slots[slot-1], trained); ok {
			size := cm.headerBytes + n
			cm.CountControl(int64(size), true)
			r.Weights, r.slot = nil, slot
			cm.Release(trained)
			return size
		}
		cm.free = append(cm.free, slot)
	}
	var size int
	r.Weights, size = cm.transmit(trained, true)
	cm.Release(trained)
	return size
}

// takeSlot returns an idle fixed-point slot, adding an empty one when none
// is idle; TransmitFixed sizes it.
func (cm *Comm) takeSlot() int32 {
	if k := len(cm.free); k > 0 {
		slot := cm.free[k-1]
		cm.free = cm.free[:k-1]
		return slot
	}
	cm.slots = append(cm.slots, codec.Fixed{})
	return int32(len(cm.slots))
}

// Receive is where the server reads a delivered update: it returns the
// weights the server reconstructs, in a buffer the caller hands back with
// Release after the fold. A slot-held upload is rebuilt into a pooled buffer
// and its slot freed; any other result already holds that buffer. r is taken
// by value so the arrival callbacks that call it capture nothing new.
func (cm *Comm) Receive(r TrainResult) []float64 {
	if r.slot == 0 {
		return r.Weights
	}
	f := &cm.slots[r.slot-1]
	w := cm.Pool(f.Len()).Get()
	cm.fixed.Reconstruct(w, f)
	cm.free = append(cm.free, r.slot)
	return w
}

// Discard gives back what a delivered update holds without reading it — a
// selector that drops an arrival calls it instead of Receive.
func (cm *Comm) Discard(r TrainResult) {
	if r.slot == 0 {
		cm.Release(r.Weights)
		return
	}
	cm.free = append(cm.free, r.slot)
}

// Broadcast is the downlink of one model to n receivers: the model crosses
// the codec once and every receiver reads the same reconstruction (they all
// would decode the identical bytes), while Down is charged n messages. The
// snapshot is shared and read-only; the caller releases it once, when the
// last reader is done.
func (cm *Comm) Broadcast(w []float64, n int) ([]float64, int) {
	snap, size := cm.transmit(w, false)
	cm.CountControl(int64(size)*int64(n-1), false)
	return snap, size
}

// Release returns a buffer obtained from transmit, Broadcast or the
// weight pool (the live fabric's decoded arrivals) to the pool; buffers of
// any other length are ignored.
func (cm *Comm) Release(w []float64) {
	if cm.pool == nil || len(w) == 0 {
		return
	}
	cm.pool.Put(w)
}

// CountControl adds small control-plane traffic (e.g. TiFL's accuracy
// collection) to the byte totals.
func (cm *Comm) CountControl(bytes int64, uplink bool) {
	if uplink {
		cm.Up += bytes
	} else {
		cm.Down += bytes
	}
}

// ---------------------------------------------------------------------------
// Evaluation harness

// Evaluator measures a weight vector against the held-out data of a fixed
// panel of clients, producing the three robustness metrics of Definition
// 3.1: prediction accuracy (sample-weighted mean), cross-client accuracy
// variance, and — through the caller's time series — convergence speed.
// Shards are fetched through a function that may synthesize the test split
// alone into the calling replica's scratch shard, and each is measured
// before the replica fetches the next, so a pass over synthesized shards
// costs O(1) memory — and, once the scratch has grown, no allocation — in
// the population size.
// Evaluation costs no virtual time and no simulated communication; the
// paper likewise excludes test-set evaluation from its measurements.
type Evaluator struct {
	ids   []int // the panel, ascending
	shard func(dst *dataset.ClientData, id int) *dataset.ClientData
	// reps are the replicas a pass runs on, one per parallel worker; a pass
	// touches only their Net and shard scratch. A simulated environment
	// lends its training replicas, NewDataEvaluator builds its own.
	reps []*Client

	// pass is Evaluate's parallel body (evalWorker), bound on the first
	// pass so a pass allocates no closure; w is the model the pass in
	// flight measures.
	pass func(wk int)
	w    []float64

	// Per-panel-member scratch reused across Evaluate calls. Evaluate is
	// not safe for concurrent use (the run loops serialize evaluation).
	accs    []float64
	correct []int
	totals  []int
	losses  []float64
}

// evalSampleIDs picks the evaluation panel: the full population in id order
// when k covers it, otherwise k ids drawn once from a dedicated labeled
// stream and sorted — fixed for the whole run so the accuracy series
// measures one consistent panel.
func evalSampleIDs(n, k int, seed uint64) []int {
	if k >= n {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	ids := rng.New(seed).SplitLabeled(hashName("evalsample")).Choose(n, k)
	sort.Ints(ids)
	return ids
}

// NewDataEvaluator builds an Evaluator directly over dataset shards, for
// callers without a simulated environment — the live transport's
// server-side evaluation of a mirrored federation — with a model replica
// of its own per parallel worker: min(GOMAXPROCS, shards).
func NewDataEvaluator(factory ModelFactory, seed uint64, shards []*dataset.ClientData) *Evaluator {
	reps := make([]*Client, parallel.Workers(len(shards)))
	for i := range reps {
		reps[i] = &Client{Net: factory(seed)}
	}
	return &Evaluator{
		ids:   evalSampleIDs(len(shards), len(shards), seed),
		shard: func(_ *dataset.ClientData, id int) *dataset.ClientData { return shards[id] },
		reps:  reps,
	}
}

// Result is one evaluation of a global model.
type Result struct {
	Acc      float64 // sample-weighted mean accuracy
	Loss     float64 // sample-weighted mean loss
	Variance float64 // population variance of per-client accuracies
}

// Evaluate runs the model on every panel member's test split, strided
// across the replicas. Per-client results are written to disjoint indices
// and summed in id order afterwards, so the replica count affects only wall
// time, never the result.
func (e *Evaluator) Evaluate(w []float64) Result {
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

	nw := len(e.reps)
	if e.pass == nil {
		e.pass = e.evalWorker
	}
	e.w = w
	parallel.ForWorkers(nw, nw, e.pass)
	e.w = nil

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

// evalWorker is Evaluate's parallel body: worker wk measures e.w on every
// nw-th panel member from wk on, with replica wk, into their slots.
func (e *Evaluator) evalWorker(wk int) {
	rep, nw := e.reps[wk], len(e.reps)
	rep.Net.SetWeights(e.w)
	for i := wk; i < len(e.ids); i += nw {
		d := e.shard(&rep.shard, e.ids[i])
		if d.NumTest() == 0 {
			continue
		}
		cor, loss := rep.Net.Eval(d.TestX, d.TestY)
		e.correct[i] = cor
		e.totals[i] = d.NumTest()
		e.losses[i] = loss * float64(e.totals[i])
		e.accs[i] = float64(cor) / float64(e.totals[i])
	}
}

// EvaluateSubset measures the model on an explicit subset of clients
// (TiFL's per-tier accuracy collection), panel member or not. It returns
// the subset's sample-weighted accuracy.
func (e *Evaluator) EvaluateSubset(w []float64, ids []int) float64 {
	rep := e.reps[0]
	rep.Net.SetWeights(w)
	correct, total := 0, 0
	for _, id := range ids {
		d := e.shard(&rep.shard, id)
		if d.NumTest() == 0 {
			continue
		}
		cor, _ := rep.Net.Eval(d.TestX, d.TestY)
		correct += cor
		total += d.NumTest()
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
