// Package metrics collects and post-processes the measurements the paper
// reports: test-accuracy timelines (smoothed over 40-round windows),
// per-client accuracy variance (Definition 3.1), time-to-target-accuracy
// (Figure 2's bar charts), and cumulative communication bytes (Table 2,
// Figure 4).
package metrics

import (
	"fmt"
	"math"
)

// Point is one evaluation of the global model during a run.
type Point struct {
	Round     int     // global update count t
	Time      float64 // virtual seconds
	UpBytes   int64   // cumulative client→server bytes
	DownBytes int64   // cumulative server→client bytes
	Acc       float64 // sample-weighted mean test accuracy over clients
	Loss      float64 // mean test loss
	Var       float64 // cross-client accuracy variance
}

// Run is the full record of one training run.
type Run struct {
	Method  string
	Dataset string
	Points  []Point

	UpBytes, DownBytes int64   // totals at the end of the run
	GlobalRounds       int     // global updates when the run ended
	EndTime            float64 // the clock when the run ended (virtual or wall seconds)

	// Retiers counts runtime re-tiering passes (RetierEvery runs) and
	// TierMigrations the total client tier changes they caused; both stay 0
	// for static-tier runs.
	Retiers        int
	TierMigrations int

	// EdgeFolds counts hierarchical edge→cloud folds observed on this run's
	// event stream and EdgeStaleness the summed staleness (in cloud epochs)
	// of the pushes that triggered them; both stay 0 for flat topologies.
	EdgeFolds     int
	EdgeStaleness float64
}

// BestAcc returns the best accuracy any evaluation reached — the paper's
// "best test accuracy after each training process converges".
func (r *Run) BestAcc() float64 {
	best := 0.0
	for _, p := range r.Points {
		if p.Acc > best {
			best = p.Acc
		}
	}
	return best
}

// FinalAcc returns the last evaluation's accuracy (0 when empty).
func (r *Run) FinalAcc() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	return r.Points[len(r.Points)-1].Acc
}

// FinalLoss returns the last evaluation's loss.
func (r *Run) FinalLoss() float64 {
	if len(r.Points) == 0 {
		return math.NaN()
	}
	return r.Points[len(r.Points)-1].Loss
}

// SecPerUpdate returns the seconds per global update: EndTime over
// GlobalRounds, 0 when the run made no update.
func (r *Run) SecPerUpdate() float64 {
	if r.GlobalRounds == 0 {
		return 0
	}
	return r.EndTime / float64(r.GlobalRounds)
}

// MeanEdgeStaleness returns the mean staleness, in cloud epochs, of the
// pushes that triggered the run's edge→cloud folds; 0 for a flat run.
func (r *Run) MeanEdgeStaleness() float64 {
	if r.EdgeFolds == 0 {
		return 0
	}
	return r.EdgeStaleness / float64(r.EdgeFolds)
}

// MeanVariance averages the cross-client accuracy variance over the run's
// second half (after warm-up), the quantity Table 1 normalizes.
func (r *Run) MeanVariance() float64 {
	if len(r.Points) == 0 {
		return math.NaN()
	}
	start := len(r.Points) / 2
	sum, n := 0.0, 0
	for _, p := range r.Points[start:] {
		sum += p.Var
		n++
	}
	return sum / float64(n)
}

// TimeToAccuracy returns the first virtual time at which the smoothed
// accuracy reached target, and whether it ever did (Figure 2's bars; the
// paper notes FedAsync never reaches some targets).
func (r *Run) TimeToAccuracy(target float64) (float64, bool) {
	for _, p := range r.Points {
		if p.Acc >= target {
			return p.Time, true
		}
	}
	return 0, false
}

// BytesToAccuracy returns the cumulative up+down bytes when the accuracy
// first reached target (Table 2).
func (r *Run) BytesToAccuracy(target float64) (int64, bool) {
	for _, p := range r.Points {
		if p.Acc >= target {
			return p.UpBytes + p.DownBytes, true
		}
	}
	return 0, false
}

// UploadBytesToAccuracy returns the cumulative uplink bytes at the target
// (Figure 4's x-axis).
func (r *Run) UploadBytesToAccuracy(target float64) (int64, bool) {
	for _, p := range r.Points {
		if p.Acc >= target {
			return p.UpBytes, true
		}
	}
	return 0, false
}

// Smooth returns a copy of the points with accuracy and loss averaged over
// non-overlapping windows of the given number of evaluations — the paper
// smooths "every 40 global rounds".
func (r *Run) Smooth(window int) []Point {
	if window <= 1 || len(r.Points) == 0 {
		out := make([]Point, len(r.Points))
		copy(out, r.Points)
		return out
	}
	var out []Point
	for i := 0; i < len(r.Points); i += window {
		j := i + window
		if j > len(r.Points) {
			j = len(r.Points)
		}
		w := r.Points[i:j]
		avg := w[len(w)-1] // keep cumulative fields from the window end
		acc, loss, v := 0.0, 0.0, 0.0
		for _, p := range w {
			acc += p.Acc
			loss += p.Loss
			v += p.Var
		}
		avg.Acc = acc / float64(len(w))
		avg.Loss = loss / float64(len(w))
		avg.Var = v / float64(len(w))
		out = append(out, avg)
	}
	return out
}

// Variance returns the population variance of vals.
func Variance(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	s := 0.0
	for _, v := range vals {
		d := v - mean
		s += d * d
	}
	return s / float64(len(vals))
}

// FormatBytes renders a byte count in MB with two decimals, the unit
// Table 2 uses.
func FormatBytes(b int64) string {
	return fmt.Sprintf("%.2f MB", float64(b)/1e6)
}
