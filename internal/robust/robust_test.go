package robust

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedianHandComputed(t *testing.T) {
	var s FoldScratch
	dst := make([]float64, 2)
	// Odd cohort: per-coordinate middles of {1,3,2} and {5,1,9}.
	if err := s.Median(dst, [][]float64{{1, 5}, {3, 1}, {2, 9}}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 2 || dst[1] != 5 {
		t.Fatalf("odd median = %v, want [2 5]", dst)
	}
	// Even cohort averages the two middles: sorted {1,2,4,10} -> 3.
	dst1 := make([]float64, 1)
	if err := s.Median(dst1, [][]float64{{1}, {10}, {4}, {2}}); err != nil {
		t.Fatal(err)
	}
	if dst1[0] != 3 {
		t.Fatalf("even median = %v, want 3", dst1[0])
	}
}

func TestTrimmedMeanHandComputed(t *testing.T) {
	var s FoldScratch
	dst := make([]float64, 1)
	vecs := [][]float64{{1}, {10}, {4}, {2}}
	// β=0.25, k=4 trims one from each side: mean(2,4) = 3.
	if err := s.TrimmedMean(dst, vecs, 0.25); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 3 {
		t.Fatalf("trimmed(0.25) = %v, want 3", dst[0])
	}
	// β=0 is the plain mean: 17/4.
	if err := s.TrimmedMean(dst, vecs, 0); err != nil {
		t.Fatal(err)
	}
	if !almost(dst[0], 17.0/4) {
		t.Fatalf("trimmed(0) = %v, want 4.25", dst[0])
	}
	// Over-aggressive β is clamped so at least one value survives; k=2
	// keeps both middles (t clamps to 0): mean(1,10) = 5.5.
	if err := s.TrimmedMean(dst, [][]float64{{1}, {10}}, 0.9); err != nil {
		t.Fatal(err)
	}
	if !almost(dst[0], 5.5) {
		t.Fatalf("clamped trimmed = %v, want 5.5", dst[0])
	}
}

func TestKrumHandComputed(t *testing.T) {
	var s FoldScratch
	// Three near-identical honest vectors and one far outlier. With f=1,
	// m=k-f-2=1: each honest score is its nearest honest distance (0.01),
	// the outlier's is ~198 — the tie breaks to the lowest index.
	vecs := [][]float64{{0, 0}, {0.1, 0}, {0, 0.1}, {10, 10}}
	dst := make([]float64, 2)
	idx, err := s.Krum(dst, vecs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 || dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("krum(f=1) picked %d %v, want 0 [0 0]", idx, dst)
	}
	// Adaptive f<0 -> f=(k-3)/2=0, m=2: scores a=0.02 b=0.03 c=0.03
	// d=396.02, same winner.
	idx, err = s.Krum(dst, vecs, -1)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("krum(adaptive) picked %d, want 0", idx)
	}
	// Single update degrades to a copy.
	idx, err = s.Krum(dst, [][]float64{{7, 8}}, 0)
	if err != nil || idx != 0 || dst[0] != 7 || dst[1] != 8 {
		t.Fatalf("krum(single) = %d %v (%v)", idx, dst, err)
	}
}

func TestFoldErrors(t *testing.T) {
	var s FoldScratch
	dst := make([]float64, 2)
	if err := s.Median(dst, nil); err == nil {
		t.Fatal("median of empty cohort should error")
	}
	if err := s.TrimmedMean(dst, [][]float64{{1}}, 0.1); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := s.Krum(dst, [][]float64{{1, 2}, {3}}, 0); err == nil {
		t.Fatal("ragged cohort should error")
	}
}

// TestFoldAllocFree: after a cohort size has been seen once the folds
// allocate nothing — also when drop-outs make the size wander, so that a
// scratch sized for ten folds nine, then four, then ten again.
func TestFoldAllocFree(t *testing.T) {
	var s FoldScratch
	vecs := make([][]float64, 10)
	for i := range vecs {
		vecs[i] = make([]float64, 300)
		for j := range vecs[i] {
			vecs[i][j] = float64(i*300 + j)
		}
	}
	dst := make([]float64, 300)
	warm := func() {
		for _, k := range []int{9, 10, 4} {
			if err := s.Median(dst, vecs[:k]); err != nil {
				t.Fatal(err)
			}
			if err := s.TrimmedMean(dst, vecs[:k], 0.2); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Krum(dst, vecs[:k], 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm()
	if n := testing.AllocsPerRun(50, warm); n != 0 {
		t.Fatalf("robust fold kernels allocate %.1f/op after first sight of a cohort size, want 0", n)
	}
}

func TestAttackTransforms(t *testing.T) {
	flip := Attack{Kind: LabelFlip, Classes: 10}
	if got := flip.FlipLabel(3); got != 6 {
		t.Fatalf("flip(3) = %d, want 6", got)
	}
	if got := (Attack{Kind: ScaleUpdate, Classes: 10}).FlipLabel(3); got != 3 {
		t.Fatalf("non-flip attacks must leave labels alone, got %d", got)
	}

	global := []float64{1, 2}
	w := []float64{1.5, 1.0}
	Attack{Kind: ScaleUpdate, Scale: 10}.ApplyDelta(w, global)
	if w[0] != 6 || w[1] != -8 {
		t.Fatalf("scale delta = %v, want [6 -8]", w)
	}
	w = []float64{1.5, 1.0}
	Attack{Kind: ScaleUpdate}.ApplyDelta(w, global) // DefaultScale
	if w[0] != 6 || w[1] != -8 {
		t.Fatalf("default scale delta = %v, want [6 -8]", w)
	}
	Attack{Kind: FreeRide}.ApplyDelta(w, global)
	if w[0] != 1 || w[1] != 2 {
		t.Fatalf("freeride = %v, want the global back", w)
	}
	w = []float64{9, 9}
	Attack{Kind: None}.ApplyDelta(w, global)
	if w[0] != 9 || w[1] != 9 {
		t.Fatalf("honest ApplyDelta must be a no-op, got %v", w)
	}
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{
		"": None, "none": None, "labelflip": LabelFlip,
		"scale": ScaleUpdate, "freeride": FreeRide,
	} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %v, %v", s, got, err)
		}
		if got.String() != s && s != "" {
			t.Fatalf("round trip %q -> %q", s, got.String())
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("unknown kind should error")
	}
}

func TestSanitizeClip(t *testing.T) {
	global := []float64{0, 0}
	w := []float64{3, 4} // delta norm 5
	g := rng.New(1)
	Sanitize(w, global, 1, 0, g)
	if !almost(w[0], 0.6) || !almost(w[1], 0.8) {
		t.Fatalf("clipped = %v, want [0.6 0.8]", w)
	}
	// Deltas inside the clip norm pass through untouched when noise is off.
	w = []float64{0.3, 0.4}
	Sanitize(w, global, 1, 0, g)
	if !almost(w[0], 0.3) || !almost(w[1], 0.4) {
		t.Fatalf("small delta = %v, want [0.3 0.4]", w)
	}
	// clip<=0 disables the stage (and draws nothing).
	w = []float64{30, 40}
	Sanitize(w, global, 0, 1, g)
	if w[0] != 30 || w[1] != 40 {
		t.Fatalf("disabled stage must not touch w, got %v", w)
	}
}

func TestSanitizeNoiseDeterministic(t *testing.T) {
	global := []float64{0, 0, 0, 0}
	base := []float64{1, 2, 3, 4}
	w1 := append([]float64(nil), base...)
	w2 := append([]float64(nil), base...)
	Sanitize(w1, global, 2, 0.5, rng.New(7))
	Sanitize(w2, global, 2, 0.5, rng.New(7))
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("same-seed noise differs at %d: %v vs %v", i, w1, w2)
		}
	}
	w3 := append([]float64(nil), base...)
	Sanitize(w3, global, 2, 0.5, rng.New(8))
	same := true
	for i := range w1 {
		if w1[i] != w3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should perturb differently")
	}
	// Noise actually perturbs relative to the clipped-only delta.
	w4 := append([]float64(nil), base...)
	Sanitize(w4, global, 2, 0, rng.New(7))
	diff := false
	for i := range w1 {
		if w1[i] != w4[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("noise multiplier 0.5 should change the sanitized delta")
	}
}

// nanCohort returns k honest updates of dimension dim and, at position
// pos, one update that is bad in every coordinate.
func nanCohort(k, dim, pos int, bad float64) [][]float64 {
	g := rng.New(uint64(k))
	vecs := make([][]float64, k)
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		for j := range vecs[i] {
			vecs[i][j] = g.Norm()
			if i == pos {
				vecs[i][j] = bad
			}
		}
	}
	return vecs
}

func allFinite(w []float64) bool {
	for _, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// TestFoldsSurviveOneNaNUpdate: the cheapest attack there is — one update
// of NaNs — at every cohort position. The gather law reads it as +Inf, so
// median and trimmed mean equal, bit for bit, the fold of the honest
// updates plus one +Inf update, and Krum never elects it. Before the law a
// NaN at position 4 of 10 came out of both coordinate folds on every
// coordinate, and a NaN at position 0 won Krum with every score NaN.
func TestFoldsSurviveOneNaNUpdate(t *testing.T) {
	const dim = 37
	var s FoldScratch
	got, want := make([]float64, dim), make([]float64, dim)
	same := func(name string, k, pos int) {
		t.Helper()
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s k=%d NaN at %d: coordinate %d = %v, with +Inf in its place %v", name, k, pos, j, got[j], want[j])
			}
		}
	}
	for _, k := range []int{3, 4, 10} {
		for pos := 0; pos < k; pos++ {
			nan, inf := nanCohort(k, dim, pos, math.NaN()), nanCohort(k, dim, pos, math.Inf(1))

			if err := s.Median(got, nan); err != nil {
				t.Fatal(err)
			}
			if err := s.Median(want, inf); err != nil {
				t.Fatal(err)
			}
			same("median", k, pos)
			if !allFinite(got) {
				t.Fatalf("median k=%d NaN at %d is not finite: %v", k, pos, got)
			}

			if err := s.TrimmedMean(got, nan, 0.2); err != nil {
				t.Fatal(err)
			}
			if err := s.TrimmedMean(want, inf, 0.2); err != nil {
				t.Fatal(err)
			}
			same("trimmed", k, pos)
			// β=0.2 trims nothing below five updates; the mean of a cohort
			// that keeps its +Inf is +Inf, which is the honest answer.
			if k >= 5 && !allFinite(got) {
				t.Fatalf("trimmed k=%d NaN at %d is not finite: %v", k, pos, got)
			}

			idx, err := s.Krum(got, nan, -1)
			if err != nil {
				t.Fatal(err)
			}
			if idx == pos || !allFinite(got) {
				t.Fatalf("krum k=%d elected %d with the NaN update at %d: %v", k, idx, pos, got)
			}
		}
	}
}

// TestGatherLawZeroSign pins -0 → +0 by bits, through the folds themselves:
// if the compiler ever folded canon's v + 0 away, the median of negative
// zeros would come out negative.
func TestGatherLawZeroSign(t *testing.T) {
	var s FoldScratch
	negZero := math.Copysign(0, -1)
	dst := []float64{1}
	for k := 1; k <= 4; k++ {
		vecs := make([][]float64, k)
		for i := range vecs {
			vecs[i] = []float64{negZero}
		}
		if err := s.Median(dst, vecs); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(dst[0]) != 0 {
			t.Fatalf("median of %d negative zeros has bits %#x, want +0", k, math.Float64bits(dst[0]))
		}
	}
	if got := canon(negZero); math.Float64bits(got) != 0 {
		t.Fatalf("canon(-0) has bits %#x, want +0", math.Float64bits(got))
	}
	if got := canon(math.NaN()); !math.IsInf(got, 1) {
		t.Fatalf("canon(NaN) = %v, want +Inf", got)
	}
	for _, v := range []float64{0, 1, -1, math.Inf(1), math.Inf(-1), 5e-324, -5e-324, math.MaxFloat64} {
		if got := canon(v); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("canon(%v) = %v, want it unchanged", v, got)
		}
	}
}
