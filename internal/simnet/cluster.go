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

	delayRNG  *rng.RNG
	delayRNG0 rng.RNG     // construction-time snapshot, restored by Reset
	drift     *driftTrack // nil = fixed compute speed
	churn     *churnTrack // nil = no transient offline windows
}

// Reset rewinds the runtime's consumable randomness (the per-round delay
// stream) to its construction-time state, so a fresh run over the same
// cluster draws the same delays. Drift and churn schedules need no reset:
// both are pure functions of (seed, t) regardless of query order.
func (c *ClientRuntime) Reset() {
	if c.delayRNG != nil {
		*c.delayRNG = c.delayRNG0
	}
}

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

// NextOnline returns the earliest time >= t at which the client is online
// (+Inf if it never is again). For the static population this is t while
// the client lives and +Inf after its permanent drop — churn windows are
// the only source of finite waits.
func (c *ClientRuntime) NextOnline(t float64) float64 {
	if c.churn != nil {
		t = c.churn.NextOnline(t)
	}
	if t >= c.DropAt {
		return Inf
	}
	return t
}

// ExpectedLatency is the profiling estimate the tiering module uses: the
// compute time for a nominal round plus the mean injected delay.
func (c *ClientRuntime) ExpectedLatency(batchSteps int) float64 {
	return c.ComputeTime(batchSteps) + (c.DelayLo+c.DelayHi)/2
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

// Cluster is the simulated population plus the server's shared links.
type Cluster struct {
	Clients    []*ClientRuntime
	ServerUp   *Link // client→server direction
	ServerDown *Link // server→client direction
}

// NewCluster builds the population: clients are randomly divided into the
// delay parts (even split unless PartSizes is set), receive persistent
// compute-speed factors, and NumUnstable of them get finite drop times.
//
// It is now a thin shell over the lazy Population — "materialize every
// client" — so the eager and lazy construction paths cannot drift apart.
// The original direct construction survives as a test oracle
// (cluster_ref_test.go) the equivalence test pins Population against.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	p, err := NewPopulation(cfg)
	if err != nil {
		return nil, err
	}
	return p.Cluster(), nil
}

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

// Reset clears the cluster's mutable simulation state — server link
// reservations and every client's delay stream — so consecutive runs over
// one cluster see identical conditions from time zero.
func (c *Cluster) Reset() {
	c.ServerUp.Reset()
	c.ServerDown.Reset()
	for _, cr := range c.Clients {
		cr.Reset()
	}
}

// The per-id queries below give a materialized cluster the same surface a
// lazy Population answers from its index tables, so the federation layer
// runs one environment over either. Each reads the live runtime, so a test
// that edits cl.Clients[id] sees its edit.

// Available reports whether client id is online at time t.
func (c *Cluster) Available(id int, t float64) bool { return c.Clients[id].Available(t) }

// NextOnline returns the earliest time >= t at which client id is online.
func (c *Cluster) NextOnline(id int, t float64) float64 { return c.Clients[id].NextOnline(t) }

// ExpectedLatency is the profiling estimate for client id.
func (c *Cluster) ExpectedLatency(id, batchSteps int) float64 {
	return c.Clients[id].ExpectedLatency(batchSteps)
}

// Materialize returns client id's runtime, which a cluster built up front.
func (c *Cluster) Materialize(id int) *ClientRuntime { return c.Clients[id] }

// UploadArrival models a client→server transfer started at now: the client
// pushes at its own link speed while the server link serializes concurrent
// transfers; the payload lands when both are done.
func (c *Cluster) UploadArrival(now float64, client *ClientRuntime, bytes int) float64 {
	clientDone := now
	if client.UpBW > 0 {
		clientDone = now + float64(bytes)/client.UpBW
	}
	serverDone := c.ServerUp.Transfer(now, bytes)
	if clientDone > serverDone {
		return clientDone
	}
	return serverDone
}

// DownloadArrival models a server→client transfer started at now.
func (c *Cluster) DownloadArrival(now float64, client *ClientRuntime, bytes int) float64 {
	clientDone := now
	if client.DownBW > 0 {
		clientDone = now + float64(bytes)/client.DownBW
	}
	serverDone := c.ServerDown.Transfer(now, bytes)
	if clientDone > serverDone {
		return clientDone
	}
	return serverDone
}
