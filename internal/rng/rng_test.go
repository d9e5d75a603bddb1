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

// Perm returns a uniformly random permutation of [0, n): PermInto into
// fresh storage.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// legacyPerm is the permutation draw before the generic loop, byte for
// byte: identity fill, then Fisher–Yates over an []int in a loop of its
// own. It is the oracle PermInto, Perm32 and Choose are held to.
func legacyPerm(r *RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TestPermutationsMatchLegacy: PermInto, Perm32 and Choose — every k —
// return the values the []int loop returned, and leave the stream where it
// left it, so no draw after them moves.
func TestPermutationsMatchLegacy(t *testing.T) {
	for _, seed := range []uint64{0, 5, 42} {
		for _, n := range []int{0, 1, 2, 67, 1000} {
			want := legacyPerm(New(seed), n)
			next := func(f func(r *RNG)) uint64 {
				r := New(seed)
				f(r)
				return r.Uint64()
			}
			wantNext := next(func(r *RNG) { legacyPerm(r, n) })
			got := make([]int, n)
			if gotNext := next(func(r *RNG) { r.PermInto(got) }); !slices.Equal(got, want) || gotNext != wantNext {
				t.Fatalf("seed %d n %d: PermInto %v (next %x), legacy %v (next %x)", seed, n, got, gotNext, want, wantNext)
			}
			var got32 []int32
			if gotNext := next(func(r *RNG) { got32 = r.Perm32(n) }); gotNext != wantNext {
				t.Fatalf("seed %d n %d: Perm32 left the stream at %x, legacy at %x", seed, n, gotNext, wantNext)
			}
			for i, v := range got32 {
				if int(v) != want[i] {
					t.Fatalf("seed %d n %d: Perm32[%d] = %d, legacy %d", seed, n, i, v, want[i])
				}
			}
			for k := 0; k <= n; k++ {
				var picks []int
				if gotNext := next(func(r *RNG) { picks = r.Choose(n, k) }); !slices.Equal(picks, want[:k]) || gotNext != wantNext {
					t.Fatalf("seed %d n %d k %d: Choose %v (next %x), legacy prefix %v (next %x)", seed, n, k, picks, gotNext, want[:k], wantNext)
				}
			}
		}
	}
}

// TestIndexedDrawMatchesStream: Float64At(i) is draw i of the sequential
// stream from the generator's current position — at every i below 10k, at
// random i up to 2²², after the generator has advanced, and, where
// stepping is out of reach, at i near the top of int's range by the shift
// law At(i+k) = At(i) after k draws. It does not advance the generator.
func TestIndexedDrawMatchesStream(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		for _, skip := range []int{0, 3} {
			r := New(seed)
			for range skip {
				r.Uint64()
			}
			seq := *r
			for i := range 10_000 {
				if got, want := r.Float64At(i), seq.Float64(); got != want {
					t.Fatalf("seed %d skip %d: Float64At(%d) = %v, stream %v", seed, skip, i, got, want)
				}
			}
			pick := New(seed ^ 0x5eed)
			large := []int{10_000 + pick.Intn(1<<22), 10_000 + pick.Intn(1<<22), 1<<22 - 1}
			slices.Sort(large)
			seq = *r
			var u float64
			at := 0
			for _, i := range large {
				for ; at <= i; at++ {
					u = seq.Float64()
				}
				if got := r.Float64At(i); got != u {
					t.Fatalf("seed %d skip %d: Float64At(%d) = %v, stream %v", seed, skip, i, got, u)
				}
			}
			if r.Float64At(0) != New(seed).Float64At(skip) {
				t.Fatalf("seed %d skip %d: indexed draws advanced the generator", seed, skip)
			}
		}
		for _, i := range []int{math.MaxInt32 - 100, math.MaxInt - 100} {
			a, b := New(seed), New(seed)
			for k := 1; k <= 50; k++ {
				b.Uint64()
				if got, want := b.Float64At(i), a.Float64At(i+k); got != want {
					t.Fatalf("seed %d: after %d draws Float64At(%d) = %v, want Float64At(%d) = %v", seed, k, i, got, i+k, want)
				}
			}
		}
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

// TestSkipMatchesStream: Skip(n) leaves the generator where n draws would,
// for every n below 300 and from a generator that has already advanced, and
// Skip(0) changes nothing.
func TestSkipMatchesStream(t *testing.T) {
	for _, seed := range []uint64{0, 7, 1 << 63} {
		r := New(seed)
		r.Uint64()
		for n := range 300 {
			skipped, stepped := *r, *r
			skipped.Skip(n)
			for range n {
				stepped.Uint64()
			}
			if skipped != stepped {
				t.Fatalf("seed %d: Skip(%d) left %+v, %d draws %+v", seed, n, skipped, n, stepped)
			}
			if a, b := skipped.Uint64(), stepped.Uint64(); a != b {
				t.Fatalf("seed %d: the draw after Skip(%d) is %d, want %d", seed, n, a, b)
			}
		}
	}
}
