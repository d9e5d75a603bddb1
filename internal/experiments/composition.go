package experiments

import (
	"fmt"

	"repro/internal/fl"
	"repro/internal/report"
)

// composeVariants are the novel policy compositions the ablation compares
// against their parent methods — each is pure registry data, no new loop
// code, which is the point of the pluggable-policy API.
var composeVariants = []struct {
	label string    // cell label (cache key) and table row
	spec  fl.Method // the composition itself
	poly  bool      // transmit through polyline(4), like FedAT proper
}{
	{
		// FedAT's tiered async loop, but each tier over-selects 130% and
		// folds only the earliest arrivals — §2.1's straggler mitigation
		// grafted inside Algorithm 2.
		label: "compose-fedat-oversel",
		spec:  fl.Method{Name: "FedAT+oversel", Select: "oversel", Pace: "tier", Update: "eq5", Local: fl.LocalPolicy{Prox: true}},
		poly:  true,
	},
	{
		// TiFL's credit-based adaptive tier selection feeding FedAT's
		// Eq. 5 per-tier fold instead of the flat average — the selected
		// tier's model updates, the global model is the cross-tier blend.
		label: "compose-tifl-eq5",
		spec:  fl.Method{Name: "TiFL+eq5fold", Select: "tifl", Pace: "sync", Update: "eq5"},
	},
}

// ablationCompose exercises the policy-composition API end to end: two
// novel method variants, assembled purely from existing selector/pacer/
// update-rule registry entries, run against the methods they derive from on
// the standard straggler-heavy testbed. Beside them sits the registry's one
// composition of a baseline, FedAvg with over-selection (Bonawitz et al.,
// discussed in §2.1): shorter rounds bought by wasting the slowest 30% of
// selected clients' work.
func ablationCompose(p Preset) (*Report, error) {
	rep := &Report{ID: "ablation-compose", Title: "Novel policy compositions (pluggable method API)"}
	spec := dsSpec{name: "cifar10", classesPerClient: 2}

	cells := []cell{
		{p: p, d: spec, method: "fedat"},
		{p: p, d: spec, method: "tifl"},
	}
	for _, v := range composeVariants {
		v := v
		c := cell{p: p, d: spec, method: v.label, spec: &v.spec}
		if v.poly {
			c.mutate = polyline4
		}
		cells = append(cells, c)
	}
	cells = append(cells, cell{p: p, d: spec, method: "fedavg"}, cell{p: p, d: spec, method: "fedavg-oversel"})
	r, err := runCells(cells)
	if err != nil {
		return nil, err
	}

	tb := report.NewTable("cifar10(#2): parent methods vs policy compositions",
		"method", "composition", "best acc", "acc variance", "sec/update", "up-MB", "up-bytes/update")
	for _, c := range cells {
		run := r.of(c)
		bytesPer := float64(run.UpBytes) / float64(max(run.GlobalRounds, 1))
		rep.Keep(c.method, run)
		m, err := c.methodSpec()
		if err != nil {
			return nil, err
		}
		tb.AddRow(report.Str(run.Method), report.Str(m.String()), accCell(run.BestAcc()),
			report.Numf("%.2e", run.MeanVariance()), report.Numf("%.1fs", run.SecPerUpdate()),
			report.Num(float64(run.UpBytes)/1e6, fmt.Sprintf("%.1f", float64(run.UpBytes)/1e6)),
			report.Num(bytesPer, fmt.Sprintf("%.0f B", bytesPer)))
	}
	rep.AddTable(tb)
	rep.AddNote("Both variants are assembled from registry policies only (no new loop code). " +
		"Expected shape: over-selection inside FedAT's tiers trims each tier's straggler tail for a " +
		"slightly faster update stream at extra upload cost; TiFL's adaptive selection with the Eq. 5 " +
		"fold keeps per-tier models and weights slow tiers up, trading some of TiFL's fast-round " +
		"throughput for FedAT-style balance. Over-selection alone (FedAvg+oversel) shortens FedAvg's rounds " +
		"but uploads ~30% more per update and systematically drops the slowest clients' contributions; " +
		"FedAT gets the speed without discarding work.")
	return rep, nil
}
