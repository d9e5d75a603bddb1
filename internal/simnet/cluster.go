package simnet

import "repro/internal/rng"

// ClientRuntime is the part of one client the population cannot recompute
// cheaply: the fields tests steer (delay range, compute speed, drop time),
// the consumable per-round delay stream, and the drift and churn schedules.
// Everything else about the client — its link speeds, attack role and the
// delay stream's starting state — the Population derives from (seed, id)
// when it is needed. On a 64-bit platform a runtime is 64 bytes.
type ClientRuntime struct {
	// DelayLo/DelayHi bound the per-round injected delay (seconds),
	// reproducing the paper's 0s, 0–5s, 6–10s, 11–15s, 20–30s groups.
	DelayLo, DelayHi float64
	// SecPerBatch is this client's compute time per mini-batch step.
	SecPerBatch float64
	// DropAt is the virtual time at which the client permanently leaves
	// (+Inf for stable clients).
	DropAt float64

	delayRNG rng.RNG     // rewound by Population.Reset, which re-derives it
	drift    *driftTrack // nil = fixed compute speed
	churn    *churnTrack // nil = no transient offline windows
}

// RoundDelay draws this round's injected delay.
func (c *ClientRuntime) RoundDelay() float64 {
	if c.DelayHi <= c.DelayLo {
		return c.DelayLo
	}
	return c.delayRNG.Uniform(c.DelayLo, c.DelayHi)
}

// computeTime returns the compute portion of a round that runs the given
// number of mini-batch steps, at the client's nominal (profiling-time)
// speed.
func (c *ClientRuntime) computeTime(batchSteps int) float64 {
	return float64(batchSteps) * c.SecPerBatch
}

// ComputeTimeAt returns the compute portion of a round starting at virtual
// time t, honoring speed drift. Without drift it is exactly computeTime.
func (c *ClientRuntime) ComputeTimeAt(batchSteps int, t float64) float64 {
	if c.drift == nil {
		return c.computeTime(batchSteps)
	}
	return float64(batchSteps) * c.SecPerBatch * c.drift.multAt(t)
}

// available reports whether the client is online at time t: it has not
// permanently dropped and is not inside a churn window.
func (c *ClientRuntime) available(t float64) bool {
	if t >= c.DropAt {
		return false
	}
	return c.churn == nil || !c.churn.offlineAt(t)
}

// OfflineWithin reports whether the client is offline at any instant in
// (start, end] — the round-disruption test: a client that blinked through
// a churn window mid-round loses that round's update even if it is back by
// the end. Without churn this reduces to the endpoint check (DropAt is
// monotone, and start is an instant the caller already knows the client was
// online).
func (c *ClientRuntime) OfflineWithin(start, end float64) bool {
	if !c.available(end) {
		return true
	}
	return c.churn != nil && c.churn.overlapsOffline(start, end)
}

// delayRanges are the paper's five injected-delay groups (§6), one per part.
var delayRanges = [][2]float64{{0, 0}, {0, 5}, {6, 10}, {11, 15}, {20, 30}}

// ClusterConfig configures the simulated client population.
type ClusterConfig struct {
	NumClients int
	// PartSizes optionally fixes how many clients land in each part (the
	// Figure 10 Uniform/Slow/Medium/Fast distributions). Defaults to an
	// even split. Must sum to NumClients when set.
	PartSizes []int
	// NumUnstable clients drop out permanently at a uniform random time in
	// (0, DropHorizon] — the paper uses 10.
	NumUnstable int
	DropHorizon float64
	// SecPerBatch is the base compute time per mini-batch; each client gets
	// a persistent ±30% speed factor on top.
	SecPerBatch float64
	// UpBW/DownBW are client link speeds, ServerBW the shared server link
	// speed (bytes/second; <= 0 = infinite).
	UpBW, DownBW, ServerBW float64
	// Behavior switches on time-varying client dynamics (speed drift,
	// transient churn, attackers). The zero value keeps the population
	// static and bit-identical to the pre-dynamics model.
	Behavior BehaviorConfig
	Seed     uint64
}

// NewCluster is NewPopulation under its name from when a population was
// built eagerly, one runtime per client. Only the benchmark harness still
// spells it.
func NewCluster(cfg ClusterConfig) (*Population, error) { return NewPopulation(cfg) }

func evenSplit(n, parts int) []int {
	out := make([]int, parts)
	base := n / parts
	rem := n % parts
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}
