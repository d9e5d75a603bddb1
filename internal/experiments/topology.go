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

// runHierarchy builds K per-edge environments by sharding the preset's
// population contiguously — edge e gets its own federated dataset and its
// own cluster, seeds offset by e so shards draw distinct data and latency
// populations — and runs the simulated hierarchy on one merged timeline.
// A non-nil trace gets every edge's events, stamped with the edge id.
func runHierarchy(p Preset, d dsSpec, m fl.Method, dyn ComposeDynamics, cloud edge.CloudConfig, trace io.Writer) (*edge.Result, error) {
	k := cloud.Edges
	if k <= 0 {
		return nil, fmt.Errorf("experiments: hierarchy needs at least one edge")
	}
	total := p.Clients
	if d.large {
		total = p.LargeClients
	}
	if k > total {
		return nil, fmt.Errorf("experiments: %d edges over %d clients", k, total)
	}

	cfg := runConfig(p, d)
	dyn.applyRun(&cfg)
	applyRoundBudget(&cfg, m)

	behavior := dyn.behavior()

	children := make([]edge.Child, k)
	var factory fl.ModelFactory
	var allShards []*dataset.ClientData
	for e := 0; e < k; e++ {
		n := total / k
		if e < total%k {
			n++
		}
		if cfg.NumTiers > n {
			return nil, fmt.Errorf("experiments: edge %d has %d clients for %d tiers", e, n, cfg.NumTiers)
		}
		fedE, err := buildFedSized(p, d, n, uint64(e)*edgeSeedStride)
		if err != nil {
			return nil, err
		}
		if factory == nil {
			factory = modelFactory(p, fedE)
		}
		allShards = append(allShards, fedE.Clients...)
		ccfg := clusterConfig(p, n, nil)
		ccfg.Seed = p.Seed + uint64(e)*edgeSeedStride
		ccfg.Behavior = behavior
		pop, err := simnet.NewPopulation(ccfg)
		if err != nil {
			return nil, err
		}
		env, err := fl.NewEnv(fedE, pop, factory, cfg)
		if err != nil {
			return nil, err
		}
		children[e] = edge.Child{Fabric: env.FabricOn}
		if trace != nil {
			children[e].Observer = fl.Trace(trace, e)
		}
	}

	if k > 1 {
		// The cloud evaluates its merged model over the union population.
		// A 1-edge hierarchy skips this: its record IS the edge engine's,
		// already evaluated on the engine's own cadence.
		ev := fl.NewDataEvaluator(factory, p.Seed, allShards)
		cloud.Eval = func(w []float64) (fl.Result, bool) { return ev.Evaluate(w), true }
		cloud.EvalEvery = cfg.EvalEvery
	}
	return edge.Run(m, cfg, children, cloud)
}

// buildFedSized is buildFed with an explicit client count and a data-seed
// offset — the per-edge shard construction; buildFed is the offset-0 case.
func buildFedSized(p Preset, d dsSpec, clients int, seedOffset uint64) (*dataset.Federated, error) {
	seed := p.Seed + uint64(d.classesPerClient) + seedOffset
	switch d.name {
	case "cifar10":
		return dataset.CIFAR10Like(clients, d.classesPerClient, p.DataScale, seed)
	case "fashion":
		return dataset.FashionLike(clients, d.classesPerClient, p.DataScale, seed)
	case "sent140":
		return dataset.Sent140Like(clients, d.classesPerClient, p.DataScale, seed)
	case "femnist":
		return dataset.FEMNISTLike(clients, p.DataScale, seed)
	case "reddit":
		return dataset.RedditLike(clients, p.DataScale, seed)
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", d.name)
	}
}

// RunComposedTopology runs an explicit policy composition on the standard
// ablation testbed (cifar10, 2 classes per client) at preset p — fedsim's
// -compose mode — over an optionally drifting, churning or adversarial
// population, with the round cap and eval cadence scaled as for the cached
// registry cells. cloud is the edge→cloud policy and cloud.Edges is K: K = 0
// is flat, K = 1 a pass-through bit-identical to flat, and larger K runs K
// engines over sharded populations on one merged timeline and returns the
// cloud-level run. A non-nil trace receives the event stream as
// fl.TraceLine lines (node 0 flat, else the edge id) in timeline order.
func RunComposedTopology(p Preset, m fl.Method, dyn ComposeDynamics, cloud edge.CloudConfig, trace io.Writer) (*metrics.Run, error) {
	d := dsSpec{name: "cifar10", classesPerClient: 2}
	return simulateDirect(func() (*metrics.Run, error) {
		if cloud.Edges > 0 {
			res, err := runHierarchy(p, d, m, dyn, cloud, trace)
			if err != nil {
				return nil, err
			}
			return res.Cloud, nil
		}
		env, err := buildEnvFull(p, d, nil,
			func(cfg *fl.RunConfig) {
				dyn.applyRun(cfg)
				applyRoundBudget(cfg, m)
			},
			func(cc *simnet.ClusterConfig) {
				cc.Behavior = dyn.behavior()
			})
		if err != nil {
			return nil, err
		}
		if trace == nil {
			return m.Run(env)
		}
		return m.Run(env, fl.Trace(trace, 0))
	})
}
