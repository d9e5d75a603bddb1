package experiments

import (
	"fmt"

	"repro/internal/fl"
	"repro/internal/report"
)

// table1Methods are the five methods Table 1 compares (ASO-Fed only appears
// in the large-scale section).
var table1Methods = []string{"tifl", "fedavg", "fedprox", "fedasync", "fedat"}

// table1Specs mirrors the paper's columns: CIFAR-10 at four non-IID levels
// plus IID, Fashion-MNIST at 2 classes, Sentiment140.
var table1Specs = []dsSpec{
	{name: "cifar10", classesPerClient: 2},
	{name: "cifar10", classesPerClient: 4},
	{name: "cifar10", classesPerClient: 6},
	{name: "cifar10", classesPerClient: 8},
	{name: "cifar10", classesPerClient: 0},
	{name: "fashion", classesPerClient: 2},
	{name: "sent140", classesPerClient: 2},
}

// Table1 reproduces "Comparison of prediction performance and variance to
// baseline approaches": best accuracy and cross-client accuracy variance
// (normalized to FedAT) for every method × dataset configuration, plus
// FedAT's improvement over the best and worst baselines.
func Table1(p Preset) (*Report, error) {
	rep := &Report{ID: "table1", Title: "Prediction performance and accuracy variance (paper Table 1)"}
	// Run the whole method × dataset grid at once; the per-spec loop below
	// reads from the request's runs.
	r, err := runCells(methodCells(p, table1Specs, table1Methods))
	if err != nil {
		return nil, err
	}

	accT := report.NewTable("Best test accuracy",
		append([]string{"method"}, specLabels(table1Specs)...)...)
	varT := report.NewTable("Accuracy variance across clients, normalized to FedAT (FedAT row absolute)",
		append([]string{"method"}, specLabels(table1Specs)...)...)
	imprT := report.NewTable("FedAT improvement over best (a) and worst (b) baseline",
		"dataset", "FedAT acc", "best baseline", "impr.(a)", "worst baseline", "impr.(b)")

	accRows := map[string][]report.Cell{}
	varRows := map[string][]report.Cell{}
	for _, m := range table1Methods {
		accRows[m] = []report.Cell{report.Str(methodLabel(m))}
		varRows[m] = []report.Cell{report.Str(methodLabel(m))}
	}

	for _, spec := range table1Specs {
		runs := r.methods(p, spec, table1Methods)
		fedatVar := runs["fedat"].MeanVariance()
		bestBase, worstBase := 0.0, 1.0
		var bestName, worstName string
		for _, m := range table1Methods {
			run := runs[m]
			rep.Keep(spec.label()+"/"+m, run)
			accRows[m] = append(accRows[m], accCell(run.BestAcc()))
			if m == "fedat" {
				varRows[m] = append(varRows[m], report.Num(fedatVar, fmt.Sprintf("%.2e (abs)", fedatVar)))
				continue
			}
			norm := run.MeanVariance() / max(fedatVar, 1e-12)
			varRows[m] = append(varRows[m], report.Numf("%.2f", norm))
			if run.BestAcc() > bestBase {
				bestBase, bestName = run.BestAcc(), methodLabel(m)
			}
			if run.BestAcc() < worstBase {
				worstBase, worstName = run.BestAcc(), methodLabel(m)
			}
		}
		fa := runs["fedat"].BestAcc()
		imprT.AddRow(report.Str(spec.label()), accCell(fa),
			report.Num(bestBase, fmt.Sprintf("%s %s", bestName, fmtAcc(bestBase))), pctCell(fa-bestBase),
			report.Num(worstBase, fmt.Sprintf("%s %s", worstName, fmtAcc(worstBase))), pctCell(fa-worstBase))
	}
	for _, m := range table1Methods {
		accT.AddRow(accRows[m]...)
		varT.AddRow(varRows[m]...)
	}

	rep.AddTable(accT)
	rep.AddTable(varT)
	rep.AddTable(imprT)
	rep.AddNote("Paper shape: FedAT highest accuracy everywhere; FedAsync worst on non-IID; " +
		"variance of baselines 1.2–6.8× FedAT's; accuracy rises and variance falls as the non-IID level decreases.")
	return rep, nil
}

func specLabels(specs []dsSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.label()
	}
	return out
}

// methodLabel is a registry method's display name.
func methodLabel(name string) string {
	if m, ok := fl.Methods[name]; ok {
		return m.Name
	}
	return name
}

func pct(delta float64) string { return fmt.Sprintf("%+.2f%%", 100*delta) }

// pctCell is pct as a typed cell carrying the raw (fractional) delta.
func pctCell(delta float64) report.Cell { return report.Num(delta, pct(delta)) }
