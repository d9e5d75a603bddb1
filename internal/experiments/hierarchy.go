package experiments

import (
	"fmt"

	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/simnet"
)

// The hierarchy experiment: the paper's FedAT is a two-level system —
// clients fold into one server. This extension asks what the tiered design
// buys when a third level is inserted: K edge aggregators each run the full
// unmodified FedAT engine over their own client shard and fold up into a
// cloud model, either on a synchronous barrier or asynchronously with
// staleness-discounted blending (the same eq. 5 shape FedAT uses across
// tiers, lifted one level). All rows share the dynamics experiment's
// drifting, churning population, the regime where hierarchy should matter:
// an edge isolates its shard's churn from the other shards' progress.

// hierarchyRow is one topology under test. An Edges of 0 is the flat
// baseline; TopKFrac enables the sparsified delta uplink on the edge→cloud
// hop only (client→edge traffic is untouched).
type hierarchyRow struct {
	key   string
	cloud edge.CloudConfig
}

// hierarchy compares flat FedAT against K-edge topologies under speed
// drift + churn, on both edge→cloud fold policies. The edge:1 row runs the
// full hierarchy machinery as a pass-through and must reproduce the flat
// row bit for bit (same acc/time columns; only the edge-fold telemetry
// differs) — the table doubles as a standing correctness check.
func hierarchy(p Preset) (*Report, error) {
	rep := &Report{ID: "hierarchy", Title: "Hierarchical edge fabric: flat vs K-edge topologies"}
	m, err := fl.Lookup("fedat")
	if err != nil {
		return nil, err
	}

	rows := []hierarchyRow{
		{"flat", edge.CloudConfig{}},
		{"edge1/sync", edge.CloudConfig{Edges: 1, Fold: edge.FoldSync}},
		{"edge2/sync", edge.CloudConfig{Edges: 2, Fold: edge.FoldSync}},
		{"edge2/async", edge.CloudConfig{Edges: 2, Fold: edge.FoldAsync, Buffer: 1}},
		{"edge2/async+topk", edge.CloudConfig{Edges: 2, Fold: edge.FoldAsync, Buffer: 1, TopKFrac: 0.25}},
	}
	// Every row is the registry FedAT as an explicit composition, so it
	// transmits raw like fedsim -compose; the variant names the topology.
	cells := make([]cell, len(rows))
	for i, row := range rows {
		cells[i] = cell{p: p, d: dsSpec{name: "cifar10", classesPerClient: 2}, method: "fedat", spec: &m,
			variant: "hier/" + row.key,
			mutate:  func(cfg *fl.RunConfig) { cfg.RetierEvery = dynRetierEvery },
			cmutate: func(cc *simnet.ClusterConfig) { cc.Behavior = dynBehavior },
			cloud:   row.cloud}
	}
	r, err := runCells(cells)
	if err != nil {
		return nil, err
	}

	tb := report.NewTable("fedat on cifar10(#2) under speed drift + churn",
		"topology", "best acc", "final acc", "sec/update", "edge folds", "mean staleness", "cloud MB up")
	timeline := map[string]*metrics.Run{}
	for i, row := range rows {
		run := r.of(cells[i])
		rep.Keep(row.key, run)
		timeline[row.key] = run
		// Flat has no edge→cloud hop at all; its telemetry columns are
		// structurally absent, not zero. A 1-edge pass-through folds (the
		// events are real) but moves no cloud bytes by construction.
		folds := report.Str("-")
		stale := report.Str("-")
		cloudMB := report.Str("-")
		if row.cloud.Edges > 0 {
			folds = report.Num(float64(run.EdgeFolds), fmt.Sprint(run.EdgeFolds))
			stale = report.Numf("%.2f", run.MeanEdgeStaleness())
		}
		if row.cloud.Edges > 1 {
			cloudMB = report.Numf("%.2f", float64(run.UpBytes)/1e6)
		}
		tb.AddRow(report.Str(row.key),
			accCell(run.BestAcc()), accCell(run.FinalAcc()),
			report.Numf("%.1fs", run.SecPerUpdate()), folds, stale, cloudMB)
	}
	rep.AddTable(tb)

	// Accuracy-over-virtual-time for the topology spread: the flat baseline,
	// the pass-through proof, and the two genuine 2-edge policies.
	order := []string{"flat", "edge1/sync", "edge2/sync", "edge2/async"}
	timelineSeries(rep, "", timeline, order, p.smoothWindow)
	rep.AddTable(timelineTable("smoothed accuracy over virtual time", timeline, order, p.smoothWindow, true))

	rep.AddNote("Every topology runs the same unmodified FedAT engine; the hierarchy only changes who it " +
		"answers to. edge:1 is the flat run routed through the full edge machinery (cloud overlay, fold " +
		"events, uplink accounting) as a pure pass-through, so its accuracy columns must match flat exactly " +
		"— a divergence here is a determinism bug, not a result. With 2 edges the population is sharded " +
		"(distinct data and latency seeds per shard, stride " + fmt.Sprint(int64(edgeSeedStride)) + "); the " +
		"sync policy folds on a barrier over live edges while async folds per push with staleness discount " +
		"α=(s+1)^-0.5, trading cloud-model coherence for fold cadence under churn. The +topk row sparsifies " +
		"the edge→cloud delta to 25% of coordinates, cutting the cloud uplink while leaving client→edge " +
		"traffic untouched; accuracy drift relative to edge2/async measures the compression cost. Cloud MB " +
		"counts only the edge→cloud hop (a hierarchy's new traffic), not client→edge bytes.")
	return rep, nil
}
