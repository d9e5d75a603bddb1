package experiments

import (
	"fmt"

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
func runHierarchy(p Preset, d dsSpec, m fl.Method, dyn ComposeDynamics, cloud edge.CloudConfig) (*edge.Result, error) {
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
		cluster, err := simnet.NewCluster(ccfg)
		if err != nil {
			return nil, err
		}
		env, err := fl.NewEnv(fedE, cluster, factory, cfg)
		if err != nil {
			return nil, err
		}
		children[e] = edge.Child{Fabric: env.FabricOn}
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

// RunComposedTopology is RunComposedDynamics over an optional hierarchy.
// cloud is the edge→cloud policy (Fold, Buffer, StaleExp, TopKFrac) and
// cloud.Edges is K; the model, the labels and the merged-model evaluator
// come from the testbed. K = 0 is flat: exactly RunComposedDynamics. K = 1
// runs the hierarchy machinery as a pass-through, bit-identical to flat.
// Larger K runs K engines over sharded populations on one merged timeline
// and returns the cloud-level run (edge folds, staleness, cloud traffic,
// merged-model evaluations). Event observers are a flat-topology feature —
// a hierarchy has K event streams, so -trace style observers are rejected.
func RunComposedTopology(p Preset, m fl.Method, dyn ComposeDynamics, cloud edge.CloudConfig, obs ...fl.Observer) (*metrics.Run, error) {
	if cloud.Edges <= 0 {
		return RunComposedDynamics(p, m, dyn, obs...)
	}
	if len(obs) > 0 {
		return nil, fmt.Errorf("experiments: event observers are not supported with an edge topology (a hierarchy has one stream per edge)")
	}
	return simulateDirect(func() (*metrics.Run, error) {
		res, err := runHierarchy(p, dsSpec{name: "cifar10", classesPerClient: 2}, m, dyn, cloud)
		if err != nil {
			return nil, err
		}
		return res.Cloud, nil
	})
}
