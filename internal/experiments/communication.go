package experiments

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/report"
)

// figure4 reproduces "test accuracy as a function of cumulative uploaded
// bytes" for the three 2-class datasets: per accuracy milestone, the uplink
// bytes each method had consumed.
func figure4(p Preset) (*Report, error) {
	rep := &Report{ID: "fig4", Title: "Accuracy vs cumulative uploaded bytes (paper Figure 4)"}
	r, err := runCells(methodCells(p, figure2Specs, table1Methods))
	if err != nil {
		return nil, err
	}
	for _, spec := range figure2Specs {
		runs := r.methods(p, spec, table1Methods)
		best := runs["fedat"].BestAcc()
		milestones := []float64{0.5 * best, 0.75 * best, 0.9 * best}
		tb := report.NewTable(spec.label(), "method",
			fmt.Sprintf("up-bytes@%.3f", milestones[0]),
			fmt.Sprintf("up-bytes@%.3f", milestones[1]),
			fmt.Sprintf("up-bytes@%.3f", milestones[2]))
		for _, m := range table1Methods {
			run := runs[m]
			rep.Keep(spec.label()+"/"+m, run)
			cells := []report.Cell{report.Str(methodLabel(m))}
			for _, target := range milestones {
				if b, ok := run.UploadBytesToAccuracy(target); ok {
					cells = append(cells, bytesCell(b))
				} else {
					cells = append(cells, report.Str("not reached"))
				}
			}
			tb.AddRow(cells...)
		}
		rep.AddTable(tb)
	}
	rep.AddNote("Paper shape: FedAT needs the fewest uploaded bytes at every accuracy level " +
		"(up to 1.28x less than the best synchronous baseline); FedAsync consumes orders of magnitude more.")
	return rep, nil
}

// table2 reproduces "amounts of data transferred between clients and server
// to achieve the target accuracy" (up+down, in MB).
func table2(p Preset) (*Report, error) {
	rep := &Report{ID: "table2", Title: "Data transferred to reach target accuracy (paper Table 2)"}
	r, err := runCells(methodCells(p, figure2Specs, table1Methods))
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("Bytes (up+down) to reach 90% of FedAT's best accuracy",
		"method", "cifar10(#2)", "fashion(#2)", "sent140(#2)")
	rows := map[string][]report.Cell{}
	order := []string{"fedavg", "tifl", "fedprox", "fedasync", "fedat"}
	for _, m := range order {
		rows[m] = []report.Cell{report.Str(methodLabel(m))}
	}
	for _, spec := range figure2Specs {
		runs := r.methods(p, spec, table1Methods)
		target := 0.9 * runs["fedat"].BestAcc()
		for _, m := range order {
			run := runs[m]
			rep.Keep(spec.label()+"/"+m, run)
			if b, ok := run.BytesToAccuracy(target); ok {
				rows[m] = append(rows[m], bytesCell(b))
			} else {
				rows[m] = append(rows[m], report.Str("-")) // the paper's dash: never reached
			}
		}
	}
	for _, m := range order {
		tb.AddRow(rows[m]...)
	}
	rep.AddTable(tb)
	rep.AddNote("Paper shape: FedAT cheapest on every dataset; FedAsync costs ~9.5x FedAT on " +
		"Fashion-MNIST and misses the CIFAR-10 target entirely.")
	return rep, nil
}

// figure5Codecs is the compression sweep: polyline precisions 3–6 plus the
// uncompressed baseline.
var figure5Codecs = []struct {
	label string
	c     codec.Channel
}{
	{"Precision 3", codec.NewPolyline(3)},
	{"Precision 4", codec.NewPolyline(4)},
	{"Precision 5", codec.NewPolyline(5)},
	{"Precision 6", codec.NewPolyline(6)},
	{"No Compression", codec.Raw{}},
}

// figure5 reproduces the accuracy/communication tradeoff of FedAT's
// compressor precision on CIFAR-10 (2-class non-IID).
func figure5(p Preset) (*Report, error) {
	rep := &Report{ID: "fig5", Title: "Compression precision tradeoff (paper Figure 5)"}
	spec := dsSpec{name: "cifar10", classesPerClient: 2}

	// One batch across all codec variants, so the sweep runs concurrently.
	cells := make([]cell, len(figure5Codecs))
	for i, entry := range figure5Codecs {
		entry := entry
		cells[i] = cell{p: p, d: spec, method: "fedat",
			variant: "codec=" + entry.label,
			mutate:  func(cfg *fl.RunConfig) { cfg.Codec = entry.c }}
	}
	r, err := runCells(cells)
	if err != nil {
		return nil, err
	}

	var rawPerUpdate float64
	runsByLabel := map[string]*metrics.Run{}
	for i, entry := range figure5Codecs {
		run := r.of(cells[i])
		rep.Keep(entry.label, run)
		runsByLabel[entry.label] = run
		if entry.label == "No Compression" {
			rawPerUpdate = float64(run.UpBytes) / float64(max(run.GlobalRounds, 1))
		}
	}
	tb := report.NewTable("FedAT on cifar10(#2) across compressor precisions",
		"codec", "best acc", "total up-bytes", "compression ratio vs raw")
	for _, entry := range figure5Codecs {
		run := runsByLabel[entry.label]
		perUpdate := float64(run.UpBytes) / float64(max(run.GlobalRounds, 1))
		ratio := rawPerUpdate / perUpdate
		tb.AddRow(report.Str(entry.label), accCell(run.BestAcc()), bytesCell(run.UpBytes),
			report.Numf("%.2fx", ratio))
		rep.AddScalar("compression_ratio/"+entry.label, ratio, "x")
	}
	rep.AddTable(tb)
	rep.AddNote("Paper shape: precision 3 loses accuracy (too lossy); precision 4 matches " +
		"no-compression accuracy while cutting bytes (the paper reports up to 3.5x and uses precision 4 everywhere).")
	return rep, nil
}

// bytesCell renders a byte count the way Table 2 does, keeping the raw
// count as the typed value.
func bytesCell(b int64) report.Cell { return report.Num(float64(b), metrics.FormatBytes(b)) }
