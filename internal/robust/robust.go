// Package robust is the adversarial-robustness substrate: client-side
// attack transforms (label flipping, scaled-update model poisoning,
// free-riding), server-side robust aggregation kernels (coordinate-wise
// median, trimmed mean, Krum) and the per-client clip+Gaussian-noise
// differential-privacy stage. The fl engine wires these pieces into both
// execution fabrics: simulated clients apply attacks selected by
// simnet.BehaviorConfig, live transport clients apply the same transforms
// from flags or server directives, and the robust update rules in fl fold with
// the kernels below.
//
// Everything here is deterministic and allocation-disciplined: attack and
// DP transforms work in place on caller buffers, DP noise draws from a
// caller-provided labeled RNG stream, and the fold kernels reuse a caller-
// owned scratch so steady-state folds allocate nothing (the PR 6 alloc
// budgets the fl tests pin).
package robust

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Kind enumerates the malicious client behaviors.
type Kind uint8

const (
	// none is the zero value: an honest client.
	none Kind = iota
	// labelFlip trains on flipped labels y -> (classes-1)-y, the classic
	// data-poisoning baseline.
	labelFlip
	// scaleUpdate returns global + Scale*(w-global): the model-poisoning
	// attack that multiplies the local delta by a factor.
	scaleUpdate
	// freeRide returns the stale global unchanged (a zero delta): the
	// client takes the model and contributes nothing.
	freeRide
)

// String returns the flag-level name of the kind.
func (k Kind) String() string {
	switch k {
	case none:
		return "none"
	case labelFlip:
		return "labelflip"
	case scaleUpdate:
		return "scale"
	case freeRide:
		return "freeride"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a flag-level attack name ("" and "none" mean honest).
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "none":
		return none, nil
	case "labelflip":
		return labelFlip, nil
	case "scale":
		return scaleUpdate, nil
	case "freeride":
		return freeRide, nil
	}
	return none, fmt.Errorf("robust: unknown attack %q (have labelflip, scale, freeride)", s)
}

// defaultScale is the delta multiplier scaleUpdate uses when none is
// configured — large enough to visibly poison a mean but trivially clipped
// by the robust folds.
const defaultScale = 10.0

// Attack is one client's malicious behavior. The zero value is honest.
type Attack struct {
	Kind Kind
	// Scale is scaleUpdate's delta multiplier (defaultScale when 0).
	Scale float64
	// Classes is the label-space size labelFlip mirrors within.
	Classes int
}

// Active reports whether the client behaves maliciously.
func (a Attack) Active() bool { return a.Kind != none }

// FlipLabel returns the poisoned label for y under labelFlip (y itself for
// every other kind, so callers can apply it unconditionally).
func (a Attack) FlipLabel(y int) int {
	if a.Kind != labelFlip || a.Classes < 2 {
		return y
	}
	return a.Classes - 1 - y
}

// ApplyDelta rewrites the trained weights w in place according to the
// attack, with global the snapshot the client trained from: scaleUpdate
// multiplies the local delta, freeRide zeroes it. labelFlip (and none)
// leave w alone — the poison already happened during training.
func (a Attack) ApplyDelta(w, global []float64) {
	switch a.Kind {
	case scaleUpdate:
		s := a.Scale
		if s == 0 {
			s = defaultScale
		}
		for i := range w {
			w[i] = global[i] + s*(w[i]-global[i])
		}
	case freeRide:
		copy(w, global)
	}
}

// Sanitize is the per-client DP stage: the local delta w-global is clipped
// to L2 norm clip and perturbed with Gaussian noise of standard deviation
// noiseMult*clip per coordinate, in place on w. The noise draws come from
// g — callers pass a stream labeled by (client, round) so the perturbation
// is a pure function of (seed, client, round) on every fabric. clip <= 0
// disables the stage entirely (no clip, no draws).
func Sanitize(w, global []float64, clip, noiseMult float64, g *rng.RNG) {
	if clip <= 0 || len(w) != len(global) {
		return
	}
	norm := 0.0
	for i := range w {
		d := w[i] - global[i]
		norm += d * d
	}
	norm = math.Sqrt(norm)
	factor := 1.0
	if norm > clip {
		factor = clip / norm
	}
	sigma := noiseMult * clip
	for i := range w {
		d := (w[i] - global[i]) * factor
		if sigma > 0 {
			d += sigma * g.Norm()
		}
		w[i] = global[i] + d
	}
}
