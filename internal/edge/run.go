package edge

import (
	"errors"
	"fmt"

	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// Child is one edge of a simulated hierarchy: a constructor binding the
// edge's fabric to a clock handle of the shared merged timeline (for a
// simulated edge, Env.FabricOn), and an optional observer of the edge's
// event stream, attached after the edge's cloud syncer.
type Child struct {
	Fabric   func(c simnet.Clock) fl.Fabric
	Observer fl.Observer
}

// seedStride offsets edge e's engine seed by e*seedStride, so edges draw
// uncorrelated selection streams; edge 0 always keeps cfg.Seed, which is
// what makes a 1-edge hierarchy replay the flat run exactly.
const seedStride = 1_000_003

// Run executes one engine per edge — the UNMODIFIED method engine, so each
// edge is a full FedAT server with its own cohort dispatch, availability,
// tiering and (with cfg.RetierEvery) runtime re-tiering — over one
// deterministically merged virtual timeline, with the cloud folding pushed
// edge models per the fold policy and each edge rebasing onto the merged
// model it later adopts. It returns the cloud-level run: edge folds,
// staleness, cloud traffic and merged-model evaluations. With one edge the
// cloud is a pass-through, so that is the edge's run itself.
//
// ccfg is the edge→cloud policy: the fold, its async parameters, the uplink
// compressor and the merged-model evaluator. Run derives Edges, W0, Shapes,
// Dataset and Method from the children and the method.
//
// Every engine starts (fl.Method.Start) and runs on the caller's goroutine:
// edge e schedules its initial events before edge e+1 starts, then one
// Drive interleaves all callbacks in global (time, seq) order, so same seed
// → bit-identical runs. An edge that fails to start fails the run before
// the timeline is driven.
func Run(m fl.Method, cfg fl.RunConfig, children []Child, ccfg CloudConfig) (*metrics.Run, error) {
	k := len(children)
	if k == 0 {
		return nil, fmt.Errorf("edge: hierarchy with zero edges")
	}

	mc := simnet.NewMultiClock(k)
	handles := make([]simnet.Clock, k)
	fabrics := make([]fl.Fabric, k)
	for e := range children {
		handles[e] = mc.Child(e)
		fabrics[e] = children[e].Fabric(handles[e])
		if fabrics[e] == nil {
			return nil, fmt.Errorf("edge: child %d built a nil fabric", e)
		}
	}
	ccfg.Edges = k
	ccfg.W0 = fabrics[0].InitialWeights()
	ccfg.Shapes = fabrics[0].Shapes()
	ccfg.Dataset = fabrics[0].Dataset()
	ccfg.Method = m.Name
	cloud, err := NewCloud(ccfg)
	if err != nil {
		return nil, err
	}
	// An edge whose engine finishes leaves the fold barrier. The hook runs
	// at a deterministic point of the merged timeline, so a
	// retirement-completed barrier folds identically on every same-seed run.
	mc.OnChildDone = func(e int) { cloud.Retire(e, handles[e].Now()) }

	finishers := make([]func() (*metrics.Run, error), k)
	for e := 0; e < k; e++ {
		cfgE := cfg
		cfgE.Seed = cfg.Seed + uint64(e)*seedStride
		obs := []fl.Observer{&edgeSyncer{cloud: cloud, edge: e}}
		if children[e].Observer != nil {
			obs = append(obs, children[e].Observer)
		}
		if finishers[e], err = m.Start(fabrics[e], cfgE, obs...); err != nil {
			return nil, err
		}
	}
	mc.Drive()
	runs := make([]*metrics.Run, k)
	errs := make([]error, k)
	for e, finish := range finishers {
		runs[e], errs[e] = finish()
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if k == 1 {
		// Pass-through: the single edge IS the cloud; its run record is the
		// authoritative trajectory (bit-identical to the flat run).
		return runs[0], nil
	}
	return cloud.Record(), nil
}

// edgeSyncer connects one edge's engine to the cloud: after each of the
// edge's own folds it pushes the fresh model up (emitting the cloud's
// EdgeFoldEvent into this edge's stream when the push triggers a fold),
// and whenever the cloud has moved past the edge's last adoption it hands
// the merged model back for a rebase.
type edgeSyncer struct {
	cloud *Cloud
	edge  int
}

// OnEvent implements fl.Observer (the Syncer capability rides on the
// observer list); the syncer only acts through AfterFold.
func (s *edgeSyncer) OnEvent(fl.Event) {}

// AfterFold implements fl.Syncer.
func (s *edgeSyncer) AfterFold(f fl.FoldInfo) fl.SyncDirective {
	var d fl.SyncDirective
	if ev, folded := s.cloud.Push(s.edge, f.Global, f.Time); folded {
		d.Events = append(d.Events, ev)
	}
	if w, _, ok := s.cloud.Adopt(s.edge); ok {
		d.Rebase = w
	}
	return d
}
