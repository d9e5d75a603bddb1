package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleRun() *Run {
	r := &Run{Method: "m", Dataset: "d"}
	accs := []float64{0.1, 0.2, 0.35, 0.5, 0.48, 0.6}
	for i, a := range accs {
		r.Points = append(r.Points, Point{
			Round: i, Time: float64(i) * 10,
			UpBytes: int64(i) * 100, DownBytes: int64(i) * 50,
			Acc: a, Loss: 1 - a, Var: 0.01 * float64(i+1),
		})
	}
	return r
}

func TestBestAndFinal(t *testing.T) {
	r := sampleRun()
	if r.BestAcc() != 0.6 {
		t.Fatalf("BestAcc %v", r.BestAcc())
	}
	if r.FinalAcc() != 0.6 {
		t.Fatalf("FinalAcc %v", r.FinalAcc())
	}
	if math.Abs(r.FinalLoss()-0.4) > 1e-12 {
		t.Fatalf("FinalLoss %v", r.FinalLoss())
	}
}

func TestEmptyRun(t *testing.T) {
	r := &Run{}
	if r.BestAcc() != 0 || r.FinalAcc() != 0 {
		t.Fatal("empty run accuracies should be 0")
	}
	if !math.IsNaN(r.FinalLoss()) || !math.IsNaN(r.MeanVariance()) {
		t.Fatal("empty run loss/variance should be NaN")
	}
	if _, ok := r.TimeToAccuracy(0.1); ok {
		t.Fatal("empty run reached a target")
	}
}

// TestSecPerUpdate: the time per update divides the run's end, not its
// last evaluation, which a synchronous pacer makes before its last fold.
func TestSecPerUpdate(t *testing.T) {
	r := sampleRun() // last eval at 50 s
	r.GlobalRounds, r.EndTime = 8, 60
	if got := r.SecPerUpdate(); got != 7.5 {
		t.Fatalf("SecPerUpdate %v, want 60/8", got)
	}
	if got := (&Run{EndTime: 60}).SecPerUpdate(); got != 0 {
		t.Fatalf("SecPerUpdate of a run with no update %v, want 0", got)
	}
}

func TestTimeToAccuracy(t *testing.T) {
	r := sampleRun()
	tt, ok := r.TimeToAccuracy(0.5)
	if !ok || tt != 30 {
		t.Fatalf("TimeToAccuracy(0.5) = %v,%v", tt, ok)
	}
	if _, ok := r.TimeToAccuracy(0.9); ok {
		t.Fatal("unreached target reported as reached")
	}
}

func TestBytesToAccuracy(t *testing.T) {
	r := sampleRun()
	b, ok := r.BytesToAccuracy(0.5)
	if !ok || b != 450 {
		t.Fatalf("BytesToAccuracy = %v,%v want 450", b, ok)
	}
	ub, ok := r.UploadBytesToAccuracy(0.5)
	if !ok || ub != 300 {
		t.Fatalf("UploadBytesToAccuracy = %v,%v want 300", ub, ok)
	}
}

func TestMeanVarianceUsesSecondHalf(t *testing.T) {
	r := sampleRun()
	// second half points: vars 0.04, 0.05, 0.06 → mean 0.05
	if math.Abs(r.MeanVariance()-0.05) > 1e-12 {
		t.Fatalf("MeanVariance %v", r.MeanVariance())
	}
}

func TestSmoothWindows(t *testing.T) {
	r := sampleRun()
	sm := r.Smooth(2)
	if len(sm) != 3 {
		t.Fatalf("Smooth(2) gave %d points", len(sm))
	}
	if math.Abs(sm[0].Acc-0.15) > 1e-12 {
		t.Fatalf("smoothed acc %v", sm[0].Acc)
	}
	// cumulative fields come from the window end
	if sm[0].UpBytes != 100 {
		t.Fatalf("smoothed bytes %v", sm[0].UpBytes)
	}
	if len(r.Smooth(1)) != len(r.Points) {
		t.Fatal("Smooth(1) should be identity-length")
	}
}

func TestSmoothPreservesMean(t *testing.T) {
	f := func(raw []uint8, wRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		r := &Run{}
		sum := 0.0
		for i, v := range raw {
			a := float64(v) / 255
			sum += a
			r.Points = append(r.Points, Point{Round: i, Acc: a})
		}
		w := int(wRaw%5) + 1
		sm := r.Smooth(w)
		smSum := 0.0
		for i, p := range sm {
			lo := i * w
			hi := lo + w
			if hi > len(raw) {
				hi = len(raw)
			}
			smSum += p.Acc * float64(hi-lo)
		}
		return math.Abs(smSum-sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVariance(t *testing.T) {
	if Variance(nil) != 0 {
		t.Fatal("empty variance")
	}
	if v := Variance([]float64{2, 2, 2}); v != 0 {
		t.Fatalf("constant variance %v", v)
	}
	if v := Variance([]float64{1, 3}); v != 1 {
		t.Fatalf("variance of {1,3} = %v, want 1", v)
	}
}

func TestFormatBytes(t *testing.T) {
	if got := FormatBytes(1675820000); got != "1675.82 MB" {
		t.Fatalf("FormatBytes: %q", got)
	}
}
