package report

import "repro/internal/metrics"

// seriesFromRun converts a run record into the standard machine-readable
// timelines the paper's figures are built from: accuracy vs virtual time,
// loss vs virtual time, and accuracy vs cumulative uploaded bytes. Every
// experiment's JSON/CSV output derives its curves through this one
// conversion instead of re-deriving them per experiment.
func seriesFromRun(name string, run *metrics.Run) []Series {
	acc := Series{Name: name + "/acc_vs_time", X: "time_s", Y: "acc"}
	loss := Series{Name: name + "/loss_vs_time", X: "time_s", Y: "loss"}
	bytes := Series{Name: name + "/acc_vs_up_bytes", X: "up_bytes", Y: "acc"}
	for _, p := range run.Points {
		acc.Pts = append(acc.Pts, XY{X: p.Time, Y: p.Acc})
		loss.Pts = append(loss.Pts, XY{X: p.Time, Y: p.Loss})
		bytes.Pts = append(bytes.Pts, XY{X: float64(p.UpBytes), Y: p.Acc})
	}
	return []Series{acc, loss, bytes}
}

// SmoothedAccSeries converts a run's smoothed accuracy timeline (the curve
// the paper's convergence figures plot) into a series.
func SmoothedAccSeries(name string, run *metrics.Run, window int) Series {
	s := Series{Name: name + "/smoothed_acc_vs_time", X: "time_s", Y: "acc"}
	for _, p := range run.Smooth(window) {
		s.Pts = append(s.Pts, XY{X: p.Time, Y: p.Acc})
	}
	return s
}
