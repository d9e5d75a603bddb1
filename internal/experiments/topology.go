package experiments

import (
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// edgeSeedStride separates the per-edge data and cluster seeds. Edge 0
// keeps the flat seeds unchanged — with one edge, the hierarchy's single
// shard IS the flat population, which is what makes edge:1 ≡ flat exact.
const edgeSeedStride = 1009

// runHierarchy runs a cell whose cloud has K >= 1 edges: it shards the
// cell's population contiguously — edge e gets its own federated dataset
// and its own cluster, seeds offset by e so shards draw distinct data and
// latency populations — and runs the simulated hierarchy on one merged
// timeline, every edge engine on cfg. A non-nil trace gets every edge's
// events, stamped with the edge id.
func runHierarchy(c cell, m fl.Method, cfg fl.RunConfig, trace io.Writer) (*metrics.Run, error) {
	k, total := c.cloud.Edges, c.clients()
	if k > total {
		return nil, fmt.Errorf("experiments: %d edges over %d clients", k, total)
	}
	children := make([]edge.Child, k)
	var fed0 *dataset.Federated
	var allShards []*dataset.ClientData
	for e := range k {
		n := total / k
		if e < total%k {
			n++
		}
		if cfg.NumTiers > n {
			return nil, fmt.Errorf("experiments: edge %d has %d clients for %d tiers", e, n, cfg.NumTiers)
		}
		env, fed, err := c.env(cfg, n, uint64(e)*edgeSeedStride)
		if err != nil {
			return nil, err
		}
		if fed0 == nil {
			fed0 = fed
		}
		allShards = append(allShards, fed.Clients...)
		children[e] = edge.Child{Fabric: env.FabricOn}
		if trace != nil {
			children[e].Observer = fl.Trace(trace, e)
		}
	}

	cloud := c.cloud
	if k > 1 {
		// The cloud evaluates its merged model over the union population.
		// A 1-edge hierarchy skips this: its record IS the edge engine's,
		// already evaluated on the engine's own cadence.
		ev := fl.NewDataEvaluator(modelFactory(c.p, fed0), c.p.Seed, allShards)
		cloud.Eval = func(w []float64) (fl.Result, bool) { return ev.Evaluate(w), true }
		cloud.EvalEvery = cfg.EvalEvery
	}
	return edge.Run(m, cfg, children, cloud)
}

// ComposeDynamics is what fedsim's compose mode lays over the standard
// testbed, in the two shapes the testbed is built from. The zero value
// runs the static testbed.
type ComposeDynamics struct {
	// Run writes the engine-side knobs (re-tiering, DP, fedbuff buffer,
	// staleness, adaptive LR) into the preset's RunConfig; nil leaves it
	// alone.
	Run func(*fl.RunConfig)
	// Behavior is the population regime: DriftMag, ChurnFrac and the
	// Attack* fields are the caller's; the drift interval, clamp and churn
	// windows are always the dynamics experiment's.
	Behavior simnet.BehaviorConfig
}

// RunComposedTopology runs an explicit policy composition on the standard
// ablation testbed (cifar10, 2 classes per client) at preset p — fedsim's
// -compose mode — as one uncached cell over an optionally drifting,
// churning or adversarial population, with the round cap and eval cadence
// scaled as for the cached registry cells. cloud is the edge→cloud policy
// and cloud.Edges is K: K = 0 is flat, K = 1 a pass-through bit-identical
// to flat, and larger K runs K engines over sharded populations on one
// merged timeline and returns the cloud-level run. A non-nil trace
// receives the event stream (see runCell).
func RunComposedTopology(p Preset, m fl.Method, dyn ComposeDynamics, cloud edge.CloudConfig, trace io.Writer) (*metrics.Run, error) {
	b := dyn.Behavior
	b.DriftInterval, b.DriftClamp = dynBehavior.DriftInterval, dynBehavior.DriftClamp
	b.ChurnOn, b.ChurnOff = dynBehavior.ChurnOn, dynBehavior.ChurnOff
	c := cell{p: p, d: dsSpec{name: "cifar10", classesPerClient: 2}, method: m.Name, spec: &m,
		mutate: dyn.Run, cmutate: func(cc *simnet.ClusterConfig) { cc.Behavior = b }, cloud: cloud}
	return simulateDirect(func() (*metrics.Run, error) { return runCell(c, trace) })
}
