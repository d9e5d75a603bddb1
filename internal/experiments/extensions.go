package experiments

import (
	"fmt"

	"repro/internal/fl"
	"repro/internal/report"
)

// The experiments in this file go beyond the paper's figures: they are
// ablations of a claim the paper makes in prose (§2.1's mis-tiering
// tolerance) and of a design parameter it fixes without sweeping (the
// proximal coefficient λ). DESIGN.md lists them as extension work.

// ablationMisTier corrupts a growing fraction of the latency profiles
// before tiering and compares FedAT with TiFL. §2.1 claims FedAT's
// asynchronous cross-tier updates tolerate mis-tiering while TiFL's
// synchronous tier rounds suffer (a fast round stalls on a mis-placed slow
// client).
func ablationMisTier(p Preset) (*Report, error) {
	rep := &Report{ID: "ablation-mistier", Title: "Mis-tiering tolerance (extension of §2.1's claim)"}
	spec := dsSpec{name: "cifar10", classesPerClient: 2}
	fracs := []float64{0, 0.2, 0.4}
	// cellFor is the single definition of a mis-tiering cell, used by both
	// the batch and the collection below.
	cellFor := func(m string, f float64) cell {
		return cell{p: p, d: spec, method: m,
			variant: fmt.Sprintf("mistier=%.2f", f),
			mutate:  func(cfg *fl.RunConfig) { cfg.MisTierFrac = f }}
	}
	var cells []cell
	for _, m := range []string{"fedat", "tifl"} {
		for _, f := range fracs {
			cells = append(cells, cellFor(m, f))
		}
	}
	r, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	header := []string{"method"}
	for _, f := range fracs {
		header = append(header, fmt.Sprintf("%.0f%% mis-tiered acc", 100*f),
			fmt.Sprintf("%.0f%% sec/update", 100*f))
	}
	tb := report.NewTable("Best accuracy and seconds per global update vs mis-profiled fraction", header...)
	for _, m := range []string{"fedat", "tifl"} {
		row := []report.Cell{report.Str(methodLabel(m))}
		for _, f := range fracs {
			run := r.of(cellFor(m, f))
			rep.Keep(fmt.Sprintf("%s/%.0f%%", m, 100*f), run)
			row = append(row, accCell(run.BestAcc()), report.Numf("%.1fs", run.SecPerUpdate()))
		}
		tb.AddRow(row...)
	}
	rep.AddTable(tb)
	rep.AddNote("Expected shape: FedAT's accuracy and update rate degrade mildly (a mis-placed slow " +
		"client only slows its own tier's loop), while TiFL's fast-tier rounds inherit slow clients " +
		"and its accuracy-based selection is poisoned.")
	return rep, nil
}

// ablationLambda sweeps the proximal coefficient λ of Eq. 3 for FedAT. The
// paper fixes λ=0.4; the sweep shows the tradeoff it balances: λ=0 lets
// non-IID clients drift, large λ blocks local learning.
func ablationLambda(p Preset) (*Report, error) {
	rep := &Report{ID: "ablation-lambda", Title: "Proximal coefficient sweep (Eq. 3 design choice)"}
	spec := dsSpec{name: "cifar10", classesPerClient: 2}
	lambdas := []float64{0, 0.1, 0.4, 1.0, 4.0}
	cellFor := func(l float64) cell {
		return cell{p: p, d: spec, method: "fedat",
			variant: fmt.Sprintf("lambda=%.2f", l),
			mutate: func(cfg *fl.RunConfig) {
				cfg.Lambda = l
				if l == 0 {
					// RunConfig.Lambda 0 means "inherit DefaultLambda"; the
					// sweep's λ=0 point genuinely disables the constraint.
					cfg.Lambda = fl.LambdaOff
				}
			}}
	}
	cells := make([]cell, len(lambdas))
	for i, l := range lambdas {
		cells[i] = cellFor(l)
	}
	r, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("FedAT on cifar10(#2) across λ", "lambda", "best acc", "acc variance")
	for _, l := range lambdas {
		run := r.of(cellFor(l))
		rep.Keep(fmt.Sprintf("lambda=%.2f", l), run)
		tb.AddRow(report.Numf("%.2f", l), accCell(run.BestAcc()), report.Numf("%.2e", run.MeanVariance()))
	}
	rep.AddTable(tb)
	return rep, nil
}
