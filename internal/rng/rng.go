// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the repository.
//
// Reproducibility is a hard requirement for the experiment harness: every
// client, every tier and every injected delay must draw from its own stream
// so that changing the parallel execution order (or adding a method to a
// comparison) never perturbs another entity's randomness. The stdlib
// math/rand shares one stream per Source and is awkward to split, so we
// implement SplitMix64 (Steele et al., "Fast Splittable Pseudorandom Number
// Generators") which is trivially splittable by seeding a child from the
// parent's output.
package rng

import "math"

// goldenGamma is the SplitMix64 increment (odd, 2^64/phi).
const goldenGamma = 0x9E3779B97F4A7C15

// RNG is a deterministic SplitMix64 generator. The zero value is a valid
// generator seeded with 0; prefer New to make seeding explicit.
type RNG struct {
	state uint64
	seed0 uint64 // construction-time seed, anchors SplitLabeled
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed, seed0: seed}
}

// Split derives an independent child stream from r. The child's sequence
// does not overlap r's continuation for any practical horizon, and calling
// Split repeatedly yields distinct children.
func (r *RNG) Split() *RNG {
	s := mix(r.Uint64())
	return &RNG{state: s, seed0: s}
}

// SplitLabeled derives a child stream keyed by label. The child depends only
// on the construction-time seed of r and on label, so the same (seed, label)
// pair always yields the same stream no matter how many draws or splits
// happened on r in between.
func (r *RNG) SplitLabeled(label uint64) *RNG {
	s := mix(r.seed0 + goldenGamma*(label+1))
	return &RNG{state: s, seed0: s}
}

// SplitLabeledValue is SplitLabeled returning the child by value, for hot
// paths that derive a short-lived stream every round without a heap
// allocation. The draw sequence is identical to SplitLabeled's.
func (r *RNG) SplitLabeledValue(label uint64) RNG {
	s := mix(r.seed0 + goldenGamma*(label+1))
	return RNG{state: s, seed0: s}
}

// Uint64 advances the generator and returns 64 uniform bits.
func (r *RNG) Uint64() uint64 {
	r.state += goldenGamma
	return mix(r.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method for an unbiased bounded draw.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mulHiLo(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

func mulHiLo(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask32+aLo*bHi)>>32
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// Float64At returns the value Float64 would return after i earlier draws —
// draw i of r's stream, counting from r's current position — without
// advancing r. SplitMix64's state after i+1 steps is state + (i+1)·γ, so
// the draw costs one mix whatever i is.
func (r *RNG) Float64At(i int) float64 {
	return unit(mix(r.state + goldenGamma*(uint64(i)+1)))
}

// Skip advances r past n draws without computing them: SplitMix64's state
// after n steps is state + n·γ, so the stream continues exactly where n
// calls to Uint64 would have left it.
func (r *RNG) Skip(n int) { r.state += goldenGamma * uint64(n) }

// unit maps 64 uniform bits to a uniform float64 in [0, 1).
func unit(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard normal variate (Box–Muller, polar-free variant).
func (r *RNG) Norm() float64 {
	// Marsaglia polar method would branch unpredictably; the plain
	// Box–Muller transform is deterministic in the number of draws, which
	// keeps parallel client streams aligned across code changes.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// PermInto fills p with a uniformly random permutation of [0, len(p)).
//
// It is kept out of line: inlined into another package, the call to the
// generic loop loses its escape information, and a caller's stack RNG —
// a training round's schedule stream — would move to the heap.
//
//go:noinline
func (r *RNG) PermInto(p []int) { permute(r, p) }

// Perm32 returns a uniformly random permutation of [0, n) as int32s: the
// permutation PermInto draws for a length-n slice, at half the memory, for
// population-sized orders. It panics if n > math.MaxInt32.
func (r *RNG) Perm32(n int) []int32 {
	if n > math.MaxInt32 {
		panic("rng: Perm32 requires n <= math.MaxInt32")
	}
	p := make([]int32, n)
	permute(r, p)
	return p
}

// permute fills p with the identity and shuffles it by Fisher–Yates. It is
// the one loop every permutation here is drawn by, so PermInto, Perm32 and
// Choose consume the identical Intn sequence whatever the element type.
func permute[T int | int32](r *RNG, p []T) {
	for i := range p {
		p[i] = T(i)
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Choose returns k distinct values sampled uniformly from [0, n) in random
// order: the first k entries of Perm32(n), copied out of that n-entry
// scratch so holding the picks does not hold it. It panics if k > n, k < 0
// or n > math.MaxInt32.
func (r *RNG) Choose(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Choose requires 0 <= k <= n")
	}
	picks := make([]int, k)
	for i, v := range r.Perm32(n)[:k] {
		picks[i] = int(v)
	}
	return picks
}

// ChooseWeighted returns one index in [0, len(weights)) drawn with
// probability proportional to weights[i]. Non-positive weights are treated
// as zero. If every weight is zero it falls back to a uniform draw.
func (r *RNG) ChooseWeighted(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}
