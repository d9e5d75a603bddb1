package experiments

import (
	"fmt"

	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/simnet"
)

// figure6 reproduces the weighted-vs-uniform aggregation comparison: FedAT
// with the Eq. 5 heuristic against a uniform-weights ablation on the three
// 2-class datasets.
func figure6(p Preset) (*Report, error) {
	rep := &Report{ID: "fig6", Title: "Weighted vs uniform cross-tier aggregation (paper Figure 6)"}
	// Both aggregation variants across all three datasets, each cell
	// defined once and read back from the request. The ablation is FedAT
	// under the "uniform" rule; it keeps FedAT's name because the name
	// labels the run's RNG streams.
	uniformFedAT := fl.Methods["fedat"]
	uniformFedAT.Update = "uniform"
	weighted := make([]cell, len(figure2Specs))
	uniform := make([]cell, len(figure2Specs))
	for i, spec := range figure2Specs {
		weighted[i] = cell{p: p, d: spec, method: "fedat"}
		uniform[i] = cell{p: p, d: spec, method: "fedat", variant: "agg=uniform", spec: &uniformFedAT, mutate: polyline4}
	}
	r, err := runCells(append(append([]cell{}, weighted...), uniform...))
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("Best accuracy with and without the weighted aggregation heuristic",
		"dataset", "Weighted (Eq. 5)", "Uniform", "delta")
	for i, spec := range figure2Specs {
		w, u := r.of(weighted[i]), r.of(uniform[i])
		rep.Keep(spec.label()+"/weighted", w)
		rep.Keep(spec.label()+"/uniform", u)
		tb.AddRow(report.Str(spec.label()), accCell(w.BestAcc()), accCell(u.BestAcc()),
			pctCell(w.BestAcc()-u.BestAcc()))
	}
	rep.AddTable(tb)
	rep.AddNote("Paper shape: weighting improves best accuracy by 1.39–4.05% across the three datasets.")
	return rep, nil
}

// figure9Participation is the client-participation sweep.
var figure9Participation = []int{2, 5, 10, 15}

// figure9Methods are the synchronous-update methods the sweep compares.
var figure9Methods = []string{"fedat", "tifl", "fedavg", "fedprox"}

// figure9 reproduces the participation-level sensitivity study on CIFAR-10
// (2-class) and Sentiment140.
func figure9(p Preset) (*Report, error) {
	rep := &Report{ID: "fig9", Title: "Impact of client participation level (paper Figure 9)"}
	specs := []dsSpec{
		{name: "cifar10", classesPerClient: 2},
		{name: "sent140", classesPerClient: 2},
	}
	// cellFor is the single definition of a participation cell; the batch
	// and the collection below both go through it.
	cellFor := func(spec dsSpec, k int, m string) cell {
		return cell{p: p, d: spec, method: m,
			variant: fmt.Sprintf("participation=%d", k),
			mutate:  func(cfg *fl.RunConfig) { cfg.ClientsPerRound = k }}
	}
	var cells []cell
	for _, spec := range specs {
		for _, k := range figure9Participation {
			for _, m := range figure9Methods {
				cells = append(cells, cellFor(spec, k, m))
			}
		}
	}
	r, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		header := []string{"method"}
		for _, k := range figure9Participation {
			header = append(header, fmt.Sprintf("%d clients", k))
		}
		tb := report.NewTable(spec.label()+": best accuracy vs clients per round", header...)
		rows := map[string][]report.Cell{}
		for _, m := range figure9Methods {
			rows[m] = []report.Cell{report.Str(methodLabel(m))}
		}
		for _, k := range figure9Participation {
			for _, m := range figure9Methods {
				run := r.of(cellFor(spec, k, m))
				rep.Keep(fmt.Sprintf("%s/%s/k=%d", spec.label(), m, k), run)
				rows[m] = append(rows[m], accCell(run.BestAcc()))
			}
		}
		for _, m := range figure9Methods {
			tb.AddRow(rows[m]...)
		}
		rep.AddTable(tb)
	}
	rep.AddNote("Paper shape: fewer participants hurts every method, but FedAT degrades the least — " +
		"at 2/100 clients it stays ~14-17% above the synchronous baselines on CIFAR-10, because the " +
		"asynchronous cross-tier stream keeps more of the population contributing.")
	return rep, nil
}

// figure10Configs are the tier-size distributions (fractions of the
// population, fastest tier first).
var figure10Configs = []struct {
	label string
	frac  [5]float64
}{
	{"Uniform", [5]float64{0.2, 0.2, 0.2, 0.2, 0.2}},
	{"Slow", [5]float64{0.1, 0.1, 0.2, 0.2, 0.4}},
	{"Medium", [5]float64{0.1, 0.2, 0.4, 0.2, 0.1}},
	{"Fast", [5]float64{0.4, 0.2, 0.2, 0.1, 0.1}},
}

// figure10 reproduces the robustness study over client distributions across
// tiers (the paper's 100/100/100/100/100 … 200/100/100/50/50 splits of 500
// clients, scaled to the preset). Each distribution is the registry FedAT
// cell of Figure 7 with its tier sizes set, so it trains to the same budget.
func figure10(p Preset) (*Report, error) {
	rep := &Report{ID: "fig10", Title: "Impact of client distribution across tiers (paper Figure 10)"}
	spec := dsSpec{name: "femnist", large: true}
	sizes := make([][]int, len(figure10Configs))
	cells := make([]cell, len(figure10Configs))
	for i, cfg := range figure10Configs {
		sizes[i] = fracSizes(p.LargeClients, cfg.frac)
		cells[i] = cell{p: p, d: spec, method: "fedat", variant: "tiers=" + cfg.label,
			cmutate: func(cc *simnet.ClusterConfig) { cc.PartSizes = sizes[i] }}
	}
	r, err := runCells(cells)
	if err != nil {
		return nil, err
	}

	tb := report.NewTable("FedAT on femnist across tier-size distributions",
		"distribution", "part sizes", "best acc", "final time")
	tl := map[string]*metrics.Run{}
	var order []string
	for i, cfg := range figure10Configs {
		run := r.of(cells[i])
		rep.Keep(cfg.label, run)
		tl[cfg.label] = run
		order = append(order, cfg.label)
		tb.AddRow(report.Str(cfg.label), report.Str(fmt.Sprint(sizes[i])),
			accCell(run.BestAcc()), timeCell(run.EndTime))
	}
	rep.AddTable(tb)
	rep.AddTable(timelineTable("Smoothed accuracy over time", tl, order, p.SmoothWindow, true))
	timelineSeries(rep, "", tl, order, p.SmoothWindow)
	rep.AddNote("Paper shape: all four distributions converge to close accuracy; Slow/Medium " +
		"converge slightly faster than Fast (fast-heavy tiers hold less total data per round of work).")
	return rep, nil
}

// fracSizes converts fractions to integer part sizes summing to n.
func fracSizes(n int, frac [5]float64) []int {
	sizes := make([]int, 5)
	used := 0
	for i := 0; i < 4; i++ {
		sizes[i] = int(frac[i] * float64(n))
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		used += sizes[i]
	}
	sizes[4] = n - used
	if sizes[4] < 1 {
		sizes[4] = 1
		// steal from the largest bucket to keep the sum right
		largest := 0
		for i := 1; i < 4; i++ {
			if sizes[i] > sizes[largest] {
				largest = i
			}
		}
		sizes[largest] -= used + 1 - n
	}
	return sizes
}
