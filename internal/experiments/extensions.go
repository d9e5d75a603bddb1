package experiments

import (
	"fmt"

	"repro/internal/fl"
	"repro/internal/report"
)

// The experiments in this file go beyond the paper's figures: they are
// ablations of claims the paper makes in prose (§2.1's mis-tiering
// tolerance, the over-selection strategy it critiques) and of design
// parameters it fixes without sweeping (FedAsync's staleness discount, the
// proximal coefficient λ). DESIGN.md lists them as extension work.

// AblationMisTier corrupts a growing fraction of the latency profiles
// before tiering and compares FedAT with TiFL. §2.1 claims FedAT's
// asynchronous cross-tier updates tolerate mis-tiering while TiFL's
// synchronous tier rounds suffer (a fast round stalls on a mis-placed slow
// client).
func AblationMisTier(p Preset) (*Report, error) {
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
	if err := scheduleCells(cells); err != nil {
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
			run, err := cellRun(cellFor(m, f))
			if err != nil {
				return nil, err
			}
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

// AblationStaleness sweeps FedAsync's polynomial staleness exponent a in
// α_t = α·(staleness+1)^(−a): a=0 ignores staleness entirely; larger a
// discounts stale updates harder.
func AblationStaleness(p Preset) (*Report, error) {
	rep := &Report{ID: "ablation-staleness", Title: "FedAsync staleness-discount sweep (design-choice ablation)"}
	spec := dsSpec{name: "cifar10", classesPerClient: 2}
	exps := []float64{0.01, 0.25, 0.5, 1.0}
	cellFor := func(a float64) cell {
		return cell{p: p, d: spec, method: "fedasync",
			variant: fmt.Sprintf("staleexp=%.2f", a),
			mutate:  func(cfg *fl.RunConfig) { cfg.Staleness.Alpha = a }}
	}
	cells := make([]cell, len(exps))
	for i, a := range exps {
		cells[i] = cellFor(a)
	}
	if err := scheduleCells(cells); err != nil {
		return nil, err
	}
	tb := report.NewTable("FedAsync on cifar10(#2)",
		"staleness exponent a", "best acc", "final acc", "acc variance")
	for _, a := range exps {
		run, err := cellRun(cellFor(a))
		if err != nil {
			return nil, err
		}
		rep.Keep(fmt.Sprintf("a=%.2f", a), run)
		tb.AddRow(report.Numf("%.2f", a), accCell(run.BestAcc()), accCell(run.FinalAcc()),
			report.Numf("%.2e", run.MeanVariance()))
	}
	rep.AddTable(tb)
	rep.AddNote("Too little discounting lets 30s-stale single-client updates whipsaw the global model; " +
		"too much freezes it. The 0.5 default is the paper-era convention.")
	return rep, nil
}

// AblationLambda sweeps the proximal coefficient λ of Eq. 3 for FedAT. The
// paper fixes λ=0.4; the sweep shows the tradeoff it balances: λ=0 lets
// non-IID clients drift, large λ blocks local learning.
func AblationLambda(p Preset) (*Report, error) {
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
	if err := scheduleCells(cells); err != nil {
		return nil, err
	}
	tb := report.NewTable("FedAT on cifar10(#2) across λ", "lambda", "best acc", "acc variance")
	for _, l := range lambdas {
		run, err := cellRun(cellFor(l))
		if err != nil {
			return nil, err
		}
		rep.Keep(fmt.Sprintf("lambda=%.2f", l), run)
		tb.AddRow(report.Numf("%.2f", l), accCell(run.BestAcc()), report.Numf("%.2e", run.MeanVariance()))
	}
	rep.AddTable(tb)
	return rep, nil
}

// AblationOverSelect compares the over-selection strategy (Bonawitz et al.,
// discussed in §2.1) against FedAvg and FedAT: it buys shorter rounds by
// wasting the slowest 30% of selected clients' work.
func AblationOverSelect(p Preset) (*Report, error) {
	rep := &Report{ID: "ablation-oversel", Title: "Over-selection baseline (§2.1's discussed strategy)"}
	spec := dsSpec{name: "cifar10", classesPerClient: 2}
	methods := []string{"fedat", "fedavg", "fedavg-oversel"}
	runs, err := cachedRunMethods(p, spec, methods, "", nil)
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("cifar10(#2)", "method", "best acc", "sec/update", "up-bytes/update")
	for _, m := range methods {
		run := runs[m]
		rep.Keep(m, run)
		bytesPer := 0.0
		if run.GlobalRounds > 0 && len(run.Points) > 0 {
			bytesPer = float64(run.UpBytes) / float64(run.GlobalRounds)
		}
		tb.AddRow(report.Str(methodLabel2(m)), accCell(run.BestAcc()),
			report.Numf("%.1fs", run.SecPerUpdate()), report.Num(bytesPer, fmt.Sprintf("%.0f B", bytesPer)))
	}
	rep.AddTable(tb)
	rep.AddNote("Expected shape: over-selection shortens FedAvg's rounds but uploads ~30% more per " +
		"update and systematically drops the slowest clients' contributions; FedAT gets the speed " +
		"without discarding work.")
	return rep, nil
}

func methodLabel2(name string) string {
	if name == "fedavg-oversel" {
		return "FedAvg+oversel"
	}
	return methodLabel(name)
}
