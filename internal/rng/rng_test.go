package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first draws")
	}
}

func TestSplitLabeledStable(t *testing.T) {
	// The labeled split must not depend on how many draws the parent made.
	p1 := New(9)
	p2 := New(9)
	p2.Uint64()
	p2.Uint64()
	if p1.SplitLabeled(5).Uint64() != p2.SplitLabeled(5).Uint64() {
		t.Fatal("SplitLabeled depends on parent draw position")
	}
	if p1.SplitLabeled(5).Uint64() == p1.SplitLabeled(6).Uint64() {
		t.Fatal("different labels produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(7) bucket %d grossly non-uniform: %d/70000", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean too far from 0: %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance too far from 1: %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChooseDistinct(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		c := New(seed).Choose(n, k)
		if len(c) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range c {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestChooseCopiesPicks: Choose draws exactly Perm's prefix, and the picks
// it returns are a k-entry copy that does not keep the permutation alive.
func TestChooseCopiesPicks(t *testing.T) {
	const n, k = 1000, 7
	c, p := New(5).Choose(n, k), New(5).Perm(n)
	if !slices.Equal(c, p[:k]) {
		t.Fatalf("Choose picks %v, Perm prefix %v", c, p[:k])
	}
	if cap(c) >= n {
		t.Fatalf("Choose returned capacity %d for %d picks; the %d-entry permutation is still attached", cap(c), k, n)
	}
}

func TestChooseWeighted(t *testing.T) {
	r := New(17)
	w := []float64{0, 1, 3, 0}
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[r.ChooseWeighted(w)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight buckets selected: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weighted ratio off (want ~3): %v", ratio)
	}
}

func TestChooseWeightedAllZero(t *testing.T) {
	r := New(19)
	w := []float64{0, 0, 0}
	for i := 0; i < 100; i++ {
		v := r.ChooseWeighted(w)
		if v < 0 || v >= 3 {
			t.Fatalf("all-zero fallback out of range: %d", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(23)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(6, 10)
		if v < 6 || v >= 10 {
			t.Fatalf("Uniform(6,10) out of range: %v", v)
		}
	}
}

func TestExpPositiveMean(t *testing.T) {
	r := New(29)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		v := r.Exp(2)
		if v < 0 {
			t.Fatalf("Exp produced negative value %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Exp(2) mean %v, want ~0.5", mean)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Norm()
	}
	_ = sink
}
