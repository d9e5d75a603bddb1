package opt

import (
	"math"
	"testing"
	"testing/quick"
)

// quadGrad returns the gradient of f(w) = Σ (w_i - target_i)².
func quadGrad(w, target []float64) []float64 {
	g := make([]float64, len(w))
	for i := range w {
		g[i] = 2 * (w[i] - target[i])
	}
	return g
}

func runToConvergence(t *testing.T, o *Adam, steps int) []float64 {
	t.Helper()
	w := []float64{5, -3, 0.5}
	target := []float64{1, 2, -1}
	for i := 0; i < steps; i++ {
		o.Step(w, quadGrad(w, target))
	}
	for i := range w {
		if math.Abs(w[i]-target[i]) > 0.05 {
			t.Fatalf("optimizer did not converge: w=%v target=%v", w, target)
		}
	}
	return w
}

func TestAdamConverges(t *testing.T) { runToConvergence(t, NewAdam(0.1), 400) }

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction the first Adam step has magnitude ≈ LR
	// regardless of gradient scale.
	for _, scale := range []float64{1e-4, 1, 1e4} {
		a := NewAdam(0.01)
		w := []float64{0}
		a.Step(w, []float64{scale})
		if math.Abs(math.Abs(w[0])-0.01) > 1e-3 {
			t.Fatalf("first Adam step %v for gradient %v, want ~0.01", w[0], scale)
		}
	}
}

func TestResetClearsState(t *testing.T) {
	// Reset keeps the state buffers (zero-alloc across rounds) but the
	// numeric state must be bit-identical to a fresh optimizer's.
	a := NewAdam(0.1)
	w := []float64{1, 1}
	a.Step(w, []float64{1, 1})
	a.Reset()
	if a.t != 0 {
		t.Fatal("Adam Reset incomplete")
	}
	for i := range a.m {
		if a.m[i] != 0 || a.v[i] != 0 {
			t.Fatal("Adam Reset left nonzero moment state")
		}
	}
	wReset := []float64{1, 1}
	a.Step(wReset, []float64{1, 1})
	wFresh := []float64{1, 1}
	NewAdam(0.1).Step(wFresh, []float64{1, 1})
	if wReset[0] != wFresh[0] || wReset[1] != wFresh[1] {
		t.Fatalf("Adam after Reset diverges from fresh: %v vs %v", wReset, wFresh)
	}
}

func TestAddProximalGradient(t *testing.T) {
	g := []float64{0, 0}
	w := []float64{3, 1}
	anchor := []float64{1, 1}
	AddProximal(g, w, anchor, 0.4)
	if math.Abs(g[0]-0.8) > 1e-12 || g[1] != 0 {
		t.Fatalf("proximal gradient wrong: %v", g)
	}
}

func TestAddProximalZeroLambdaNoop(t *testing.T) {
	g := []float64{1, 2}
	AddProximal(g, []float64{9, 9}, []float64{0, 0}, 0)
	if g[0] != 1 || g[1] != 2 {
		t.Fatal("λ=0 modified gradients")
	}
}

func TestProximalLossMatchesGradient(t *testing.T) {
	// Property: the analytic proximal gradient matches finite differences
	// of the penalty λ/2·(w−anchor)².
	f := func(wv, av float64) bool {
		if math.IsNaN(wv) || math.IsInf(wv, 0) || math.Abs(wv) > 1e6 {
			wv = 1
		}
		if math.IsNaN(av) || math.IsInf(av, 0) || math.Abs(av) > 1e6 {
			av = 0
		}
		lambda := 0.4
		w := []float64{wv}
		anchor := []float64{av}
		g := []float64{0}
		AddProximal(g, w, anchor, lambda)
		eps := 1e-6 * (1 + math.Abs(wv))
		loss := func(w float64) float64 { return lambda / 2 * (w - av) * (w - av) }
		numeric := (loss(wv+eps) - loss(wv-eps)) / (2 * eps)
		return math.Abs(numeric-g[0]) <= 1e-4*(1+math.Abs(g[0]))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProximalPullsTowardAnchor(t *testing.T) {
	// Minimizing only the proximal term (plain gradient steps of 0.5)
	// should drive w to the anchor.
	w := []float64{10, -10}
	anchor := []float64{2, 3}
	g := make([]float64, 2)
	for i := 0; i < 100; i++ {
		g[0], g[1] = 0, 0
		AddProximal(g, w, anchor, 1.0)
		w[0] -= 0.5 * g[0]
		w[1] -= 0.5 * g[1]
	}
	if math.Abs(w[0]-2) > 1e-6 || math.Abs(w[1]-3) > 1e-6 {
		t.Fatalf("proximal descent did not reach anchor: %v", w)
	}
}

func TestStepLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	NewAdam(0.1).Step([]float64{1}, []float64{1, 2})
}
