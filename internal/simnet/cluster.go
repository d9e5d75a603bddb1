package simnet

import (
	"repro/internal/rng"
	"repro/internal/robust"
)

// ClientRuntime models one client's performance characteristics.
type ClientRuntime struct {
	ID int
	// Part is the ground-truth speed group the delay range came from
	// (0 = fastest). The tiering module profiles latencies and should
	// approximately recover these parts.
	Part int
	// DelayLo/DelayHi bound the per-round injected delay (seconds),
	// reproducing the paper's 0s, 0–5s, 6–10s, 11–15s, 20–30s groups.
	DelayLo, DelayHi float64
	// SecPerBatch is this client's compute time per mini-batch step.
	SecPerBatch float64
	// UpBW/DownBW are the client-side link speeds in bytes/second
	// (<=0 = infinite).
	UpBW, DownBW float64
	// DropAt is the virtual time at which the client permanently leaves
	// (+Inf for stable clients).
	DropAt float64
	// Attack is the client's malicious behavior (zero value = honest; the
	// attack regime of BehaviorConfig). The federation layer reads it when
	// building trainers — the simnet clock model itself never does:
	// attackers are indistinguishable from honest clients in time.
	Attack robust.Attack

	delayRNG  rng.RNG
	delayRNG0 rng.RNG     // construction-time snapshot, restored by Reset
	drift     *driftTrack // nil = fixed compute speed
	churn     *churnTrack // nil = no transient offline windows
}

// Reset rewinds the runtime's consumable randomness (the per-round delay
// stream) to its construction-time state, so a fresh run over the same
// cluster draws the same delays. Drift and churn schedules need no reset:
// both are pure functions of (seed, t) regardless of query order.
func (c *ClientRuntime) Reset() { c.delayRNG = c.delayRNG0 }

// RoundDelay draws this round's injected delay.
func (c *ClientRuntime) RoundDelay() float64 {
	if c.DelayHi <= c.DelayLo {
		return c.DelayLo
	}
	return c.delayRNG.Uniform(c.DelayLo, c.DelayHi)
}

// ComputeTime returns the compute portion of a round that runs the given
// number of mini-batch steps, at the client's nominal (profiling-time)
// speed.
func (c *ClientRuntime) ComputeTime(batchSteps int) float64 {
	return float64(batchSteps) * c.SecPerBatch
}

// ComputeTimeAt returns the compute portion of a round starting at virtual
// time t, honoring speed drift. Without drift it is exactly ComputeTime.
func (c *ClientRuntime) ComputeTimeAt(batchSteps int, t float64) float64 {
	if c.drift == nil {
		return c.ComputeTime(batchSteps)
	}
	return float64(batchSteps) * c.SecPerBatch * c.drift.MultAt(t)
}

// Available reports whether the client is online at time t: it has not
// permanently dropped and is not inside a churn window.
func (c *ClientRuntime) Available(t float64) bool {
	if t >= c.DropAt {
		return false
	}
	return c.churn == nil || !c.churn.OfflineAt(t)
}

// OfflineWithin reports whether the client is offline at any instant in
// (start, end] — the round-disruption test: a client that blinked through
// a churn window mid-round loses that round's update even if it is back by
// the end. Without churn this reduces to the endpoint check (DropAt is
// monotone, and start is an instant the caller already knows the client was
// online).
func (c *ClientRuntime) OfflineWithin(start, end float64) bool {
	if !c.Available(end) {
		return true
	}
	return c.churn != nil && c.churn.OverlapsOffline(start, end)
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
