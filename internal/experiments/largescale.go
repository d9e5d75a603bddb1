package experiments

import (
	"repro/internal/report"
)

// figure7Methods include ASO-Fed, which the paper only evaluates at large
// scale (§7.4).
var figure7Methods = []string{"fedat", "tifl", "fedavg", "fedprox", "fedasync", "asofed"}

// figure7 reproduces the large-scale FEMNIST experiment: accuracy over time
// and accuracy over uploaded bytes with the large client population. One
// request runs all six methods' cells at once.
func figure7(p Preset) (*Report, error) {
	rep := &Report{ID: "fig7", Title: "Large-scale FEMNIST: accuracy over time and bytes (paper Figure 7)"}
	spec := dsSpec{name: "femnist", large: true}
	r, err := runCells(methodCells(p, []dsSpec{spec}, figure7Methods))
	if err != nil {
		return nil, err
	}
	runs := r.methods(p, spec, figure7Methods)
	for m, run := range runs {
		rep.Keep(m, run)
	}
	rep.AddTable(timelineTable("Smoothed accuracy over virtual time",
		runs, figure7Methods, p.SmoothWindow, false))
	timelineSeries(rep, "", runs, figure7Methods, p.SmoothWindow)

	tb := report.NewTable("Accuracy vs communication",
		"method", "best acc", "total up-bytes", "up-bytes to 90% of FedAT best")
	target := 0.9 * runs["fedat"].BestAcc()
	for _, m := range figure7Methods {
		run := runs[m]
		cell := report.Str("not reached")
		if b, ok := run.UploadBytesToAccuracy(target); ok {
			cell = bytesCell(b)
		}
		tb.AddRow(report.Str(methodLabel(m)), accCell(run.BestAcc()), bytesCell(run.UpBytes), cell)
	}
	rep.AddTable(tb)
	rep.AddNote("Paper shape: FedAT leads from the early stage and stays >=1.2% above FedProx/TiFL; " +
		"FedAsync and ASO-Fed trail in accuracy and spend far more bytes.")
	return rep, nil
}

// figure8Methods are the three frameworks the Reddit comparison keeps (the
// async baselines fail to converge on Reddit, §7.4).
var figure8Methods = []string{"fedat", "tifl", "fedprox"}

// figure8 reproduces the Reddit LSTM experiment: accuracy and loss over
// time.
func figure8(p Preset) (*Report, error) {
	rep := &Report{ID: "fig8", Title: "Reddit LSTM: accuracy and loss over time (paper Figure 8)"}
	spec := dsSpec{name: "reddit", large: true}
	r, err := runCells(methodCells(p, []dsSpec{spec}, figure8Methods))
	if err != nil {
		return nil, err
	}
	runs := r.methods(p, spec, figure8Methods)
	for m, run := range runs {
		rep.Keep(m, run)
	}
	rep.AddTable(timelineTable("Smoothed accuracy over virtual time",
		runs, figure8Methods, p.SmoothWindow, false))
	timelineSeries(rep, "", runs, figure8Methods, p.SmoothWindow)

	loss := report.NewTable("Test loss trajectory", "method", "first loss", "final loss", "best acc")
	for _, m := range figure8Methods {
		run := runs[m]
		first := 0.0
		if len(run.Points) > 0 {
			first = run.Points[0].Loss
		}
		loss.AddRow(report.Str(methodLabel(m)), report.Numf("%.3f", first),
			report.Numf("%.3f", run.FinalLoss()), accCell(run.BestAcc()))
	}
	rep.AddTable(loss)
	rep.AddNote("Paper shape: similar learning trends for all three, with FedAT holding the best " +
		"accuracy and the lowest loss throughout.")
	return rep, nil
}
