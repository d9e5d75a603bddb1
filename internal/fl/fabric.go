package fl

import (
	"repro/internal/codec"
	"repro/internal/simnet"
	"repro/internal/tiering"
)

// TrainResult is one client's resolved local round as the server observes
// it: the update in flight, the client's sample count, and the arrival stamp
// on the fabric's clock. Dropped marks a client that went offline (or
// disconnected) before its update landed; Arrive then holds the time the
// loss was discovered.
//
// The update is read only through the run's inbox, at the fold that
// consumes it. A live result arrives already decoded, in Weights. A
// simulated polyline upload is still its quantized integers in one of the
// Comm's fixed-point slots (slot > 0, Weights nil) until that fold; the slot
// id sits in the padding after Dropped, so the struct stays 64 bytes.
type TrainResult struct {
	Client  int
	Weights []float64
	N       int // n_k, the client's local sample count
	steps   int // batch steps executed (simulated fabrics use it for compute time)
	Arrive  float64
	Dropped bool
	slot    int32 // 1-based Comm fixed-point slot; 0 means Weights holds the update
}

// Fabric is the execution substrate a method runs on — the small surface a
// pacer actually touches: dispatch local work to a cohort, observe the
// arrivals, account communication through Comm, and advance the clock. The
// engine (Method.RunOn) drives exactly one fabric per run and owns all
// policy decisions; the fabric owns execution and time.
//
// Two implementations exist: the simulated fabric below (virtual clock,
// lossy-channel modeling, per-round injected delays; the only one in this
// package, whatever the Env was built from) and the live TCP fabric in
// internal/transport (wall clock, real connections). Every policy
// composition in the registry runs unchanged on both.
//
// Threading contract: the engine calls fabric methods only from the clock
// goroutine (the caller of Method.Start and Run, and the callbacks Run
// executes). The fabric must deliver Dispatch results back on that same
// goroutine.
type Fabric interface {
	simnet.Clock

	// Dataset names the training data, for run records.
	Dataset() string
	// NumClients is the population size; clients are identified 0..N-1.
	NumClients() int
	// SampleCount returns client id's local training-set size n_k.
	SampleCount(id int) int
	// Available reports whether client id can take work at time now.
	Available(id int, now float64) bool
	// NextAvailable returns the earliest time >= now at which client id can
	// take work again, +Inf if it never will. Transient churn and late
	// joins produce finite waits on the simulated fabric; the live fabric
	// has no rejoin schedule — a disconnected client is gone.
	NextAvailable(id int, now float64) float64

	// InitialWeights returns a fresh copy of the initial global model w0.
	InitialWeights() []float64
	// Shapes describes the model's parameter blocks (for the codec).
	Shapes() []codec.ShapeInfo

	// Partition groups the population into cfg.NumTiers latency tiers —
	// profiled response times on the simulated fabric, registration
	// latency hints on the live one.
	Partition(cfg RunConfig) (*tiering.Tiers, error)

	// Dispatch starts one cohort round at time now from the global
	// snapshot: ship the model to each client, train locally with lc, and
	// hand the per-client outcomes (index-aligned with cohort) to deliver.
	// The fabric decides when deliver runs: the simulated fabric computes
	// outcomes immediately and calls deliver before Dispatch returns; the
	// live fabric trains over TCP and calls deliver from the run loop when
	// the last response resolves. Model bytes are tallied on comm. The
	// results are valid only during deliver (the simulated fabric's are
	// the environment's buffer, cleared when deliver returns): deliver
	// copies what it keeps. The cohort is the calling loop's buffer, which
	// it picks into again only after this round's deliver and fold, so a
	// fabric may read it until it calls deliver.
	Dispatch(comm *Comm, cohort []int, now float64, global []float64, lc LocalConfig, deliver func([]TrainResult, error))

	// Probe accounts a control round-trip to each listed client — w
	// pushed down, a replyBytes-sized answer up (TiFL's accuracy
	// collection) — and returns the time the last reply lands. The
	// simulated fabric reserves link capacity; the live fabric only
	// tallies the bytes and returns now.
	Probe(comm *Comm, ids []int, now float64, w []float64, replyBytes int) (float64, error)

	// Evaluate measures the global model against the population's held-out
	// data; ok is false when the fabric has no evaluation harness (a live
	// server without mirrored data), in which case the engine skips the
	// Eval event.
	Evaluate(w []float64) (res Result, ok bool)
	// EvaluateSubset measures w on a subset of clients (TiFL's per-tier
	// accuracy collection); fabrics without a harness report 0.
	EvaluateSubset(w []float64, ids []int) float64
}

// ---------------------------------------------------------------------------
// Simulated fabric

// simFabric runs methods on the discrete-event simulator: runCohort
// computes each round's outcome synchronously (virtual link reservations,
// injected delays, the lossy codec channel) and a simnet clock is the
// timeline. It is the reference fabric: the bit-pinned golden runs define
// its behavior. Every per-client question is answered by the
// environment's population, so availability is queried without
// materializing anyone.
type simFabric struct {
	simnet.Clock
	env *Env
}

// Fabric returns a fresh simulated fabric over the environment. Each call
// makes a new one (the clock starts at zero), so one Env can back many
// runs.
func (e *Env) Fabric() Fabric { return e.FabricOn(simnet.New()) }

// FabricOn returns a simulated fabric over the environment driven by an
// externally owned clock — a child handle of a simnet.MultiClock when the
// environment is one edge of a hierarchical topology, so K edge fabrics
// share one deterministically merged timeline. The caller owns the clock's
// lifecycle: a hierarchy starts each edge's engine with Method.Start and
// drives the merged timeline itself. Everything else (training arithmetic,
// link reservations, availability) stays per-environment.
func (e *Env) FabricOn(c simnet.Clock) Fabric { return &simFabric{Clock: c, env: e} }

func (f *simFabric) Dataset() string { return f.env.dataset }
func (f *simFabric) NumClients() int { return f.env.n }
func (f *simFabric) SampleCount(id int) int {
	return f.env.shards.NumTrain(id)
}
func (f *simFabric) Available(id int, now float64) bool {
	return f.env.pop.Available(id, now)
}
func (f *simFabric) NextAvailable(id int, now float64) float64 {
	return f.env.pop.NextOnline(id, now)
}
func (f *simFabric) InitialWeights() []float64 { return f.env.initialWeights() }
func (f *simFabric) Shapes() []codec.ShapeInfo { return f.env.shapes }

// Partition profiles the simulated latencies. The environment's own config
// drives profiling (nominal round length, MisTierFrac corruption), so the
// cfg parameter is redundant here; it exists for fabrics with no Env.
func (f *simFabric) Partition(RunConfig) (*tiering.Tiers, error) {
	return profileTiers(f.env)
}

// Dispatch delivers the environment's results buffer and then clears it:
// the results are valid only during deliver, and a buffer still pointing at
// their weights would keep a finished run's weight pool reachable from the
// environment into the next run.
func (f *simFabric) Dispatch(comm *Comm, cohort []int, now float64, global []float64, lc LocalConfig, deliver func([]TrainResult, error)) {
	results := f.env.runCohort(cohort, now, global, comm, lc)
	deliver(results, nil)
	clear(results)
}

// Probe sends w across the codec once for the whole sweep (every client
// would receive the same bytes, and a probe only needs their count), then
// charges each client the download, its reply and the link time. Link
// speeds are the population's, so a probe builds no client runtime.
func (f *simFabric) Probe(comm *Comm, ids []int, now float64, w []float64, replyBytes int) (float64, error) {
	if len(ids) == 0 {
		return now, nil
	}
	probed, bytes := comm.broadcast(w, len(ids))
	comm.Release(probed) // probes only need the byte accounting
	comm.CountControl(int64(replyBytes)*int64(len(ids)), true)
	latest := now
	for range ids {
		done := f.env.pop.DownloadArrival(now, bytes)
		done = f.env.pop.UploadArrival(done, replyBytes)
		if done > latest {
			latest = done
		}
	}
	return latest, nil
}

func (f *simFabric) Evaluate(w []float64) (Result, bool) {
	return f.env.eval.Evaluate(w), true
}
func (f *simFabric) EvaluateSubset(w []float64, ids []int) float64 {
	return f.env.eval.EvaluateSubset(w, ids)
}
