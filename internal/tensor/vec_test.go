package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy: got %v, want %v", y, want)
		}
	}
}

func TestAxpyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Axpy length mismatch did not panic")
		}
	}()
	Axpy(1, []float64{1}, []float64{1, 2})
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestScaleFillZeroCopy(t *testing.T) {
	x := []float64{1, 2}
	Scale(3, x)
	if x[0] != 3 || x[1] != 6 {
		t.Fatalf("Scale: %v", x)
	}
	Fill(x, 7)
	if x[0] != 7 || x[1] != 7 {
		t.Fatalf("Fill: %v", x)
	}
	c := Copy(x)
	Zero(x)
	if x[0] != 0 || c[0] != 7 {
		t.Fatalf("Zero/Copy aliasing: x=%v c=%v", x, c)
	}
}

func TestNorm2SqDist(t *testing.T) {
	if got := SqDist([]float64{1, 1}, []float64{4, 5}); got != 25 {
		t.Fatalf("SqDist = %v", got)
	}
}

func TestMaxArgMax(t *testing.T) {
	v, i := Max([]float64{1, 9, 3, 9})
	if v != 9 || i != 1 {
		t.Fatalf("Max = (%v,%d)", v, i)
	}
	if ArgMax([]float64{-5, -1, -9}) != 1 {
		t.Fatal("ArgMax wrong")
	}
}

func TestLerp(t *testing.T) {
	dst := []float64{0, 10}
	Lerp(dst, []float64{10, 0}, 0.25)
	if !almostEq(dst[0], 2.5, 1e-12) || !almostEq(dst[1], 7.5, 1e-12) {
		t.Fatalf("Lerp: %v", dst)
	}
}

func TestWeightedSumInto(t *testing.T) {
	dst := make([]float64, 2)
	WeightedSumInto(dst, []float64{0.25, 0.75}, [][]float64{{4, 0}, {0, 4}})
	if !almostEq(dst[0], 1, 1e-12) || !almostEq(dst[1], 3, 1e-12) {
		t.Fatalf("WeightedSumInto: %v", dst)
	}
}

func TestWeightedSumWeightsSumToOnePreservesConstant(t *testing.T) {
	// Property: if all input vectors are the constant vector k and weights
	// sum to 1, the output is the constant vector k (aggregation identity
	// relied on by the FL weighted-average code).
	f := func(seedVals [4]float64) bool {
		w := make([]float64, 4)
		total := 0.0
		for i, v := range seedVals {
			v = math.Abs(v)
			if !(v < 1e6) { // sanitize Inf/NaN/huge quick inputs
				v = 1
			}
			w[i] = v + 0.1
			total += w[i]
		}
		for i := range w {
			w[i] /= total
		}
		vecs := make([][]float64, 4)
		for i := range vecs {
			vecs[i] = []float64{3.5, -2, 0.125}
		}
		dst := make([]float64, 3)
		WeightedSumInto(dst, w, vecs)
		return almostEq(dst[0], 3.5, 1e-9) && almostEq(dst[1], -2, 1e-9) && almostEq(dst[2], 0.125, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmax(t *testing.T) {
	out := make([]float64, 3)
	Softmax([]float64{1, 2, 3}, out)
	sum := Sum(out)
	if !almostEq(sum, 1, 1e-12) {
		t.Fatalf("softmax sums to %v", sum)
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Fatalf("softmax not monotone: %v", out)
	}
}

func TestSoftmaxStableForLargeLogits(t *testing.T) {
	out := make([]float64, 2)
	Softmax([]float64{1000, 1001}, out)
	if math.IsNaN(out[0]) || math.IsNaN(out[1]) {
		t.Fatalf("softmax overflowed: %v", out)
	}
	if !almostEq(Sum(out), 1, 1e-12) {
		t.Fatalf("softmax sums to %v", Sum(out))
	}
}
