package simnet

import "repro/internal/rng"

// Time-varying client behavior. The static population NewPopulation builds —
// fixed per-client speeds, permanent DropAt departures — matches the paper's
// §6 testbed, where clients are profiled once and stay in character. Real
// populations drift, churn and get mis-profiled; BehaviorConfig switches on
// two dynamic regimes, all driven off the virtual clock so runs remain
// bit-for-bit deterministic:
//
//   - speed drift: each client's compute multiplier takes a multiplicative
//     random-walk step every DriftInterval virtual seconds (step-change
//     behavior is the same walk with a large magnitude and long interval);
//   - transient churn: a fraction of clients cycle through offline windows
//     and come back — generalizing the permanent DropAt departure.
//
// The zero value disables everything, and a disabled population is
// bit-identical to one built before this model existed: no extra RNG draws
// happen, and the static code paths execute the exact same arithmetic.
type BehaviorConfig struct {
	// DriftMag > 0 enables speed drift: every DriftInterval seconds each
	// client's compute-time multiplier is multiplied by an independent
	// uniform draw from [1-DriftMag, 1+DriftMag], clamped to
	// [1/DriftClamp, DriftClamp].
	DriftMag float64
	// DriftInterval is the walk's step length in virtual seconds
	// (default 60).
	DriftInterval float64
	// DriftClamp bounds the cumulative multiplier (default 4).
	DriftClamp float64

	// ChurnFrac of clients (rounded) cycle offline/online: online for a
	// uniform draw from ChurnOn seconds, then offline for a uniform draw
	// from ChurnOff seconds, repeating forever. 0 disables churn.
	ChurnFrac float64
	// ChurnOn bounds the online-window length (default [200, 600)).
	ChurnOn [2]float64
	// ChurnOff bounds the offline-window length (default [50, 200)).
	ChurnOff [2]float64

	// AttackFrac of clients (rounded) behave maliciously according to
	// AttackKind ("labelflip", "scale" or "freeride" — see internal/robust).
	// The attacker set is drawn from its own population stream, so churn
	// membership is untouched at any attack fraction.
	// Either AttackFrac=0 or AttackKind=""/"none" disables the regime.
	AttackFrac float64
	AttackKind string
	// AttackScale is the delta multiplier for the "scale" attack
	// (robust's default multiplier when 0).
	AttackScale float64
	// AttackTail makes the attacker population latency-correlated instead
	// of uniform: attackers are the AttackFrac·n clients with the largest
	// Part (slowest delay groups), ties broken by id. No randomness is
	// drawn — the set is a pure function of the static population. This is
	// the knob behind the tiering×attackers question: under FedAT the tail
	// parts concentrate into the slow tiers.
	AttackTail bool
}

// enabled reports whether any dynamic regime is switched on.
func (b BehaviorConfig) enabled() bool {
	return b.DriftMag > 0 || b.ChurnFrac > 0 || b.attackOn()
}

func (b BehaviorConfig) attackOn() bool {
	return b.AttackFrac > 0 && b.AttackKind != "" && b.AttackKind != "none"
}

func (b BehaviorConfig) withDefaults() BehaviorConfig {
	if b.DriftInterval <= 0 {
		b.DriftInterval = 60
	}
	if b.DriftClamp <= 1 {
		b.DriftClamp = 4
	}
	if b.ChurnOn == [2]float64{} {
		b.ChurnOn = [2]float64{200, 600}
	}
	if b.ChurnOff == [2]float64{} {
		b.ChurnOff = [2]float64{50, 200}
	}
	return b
}

// RNG stream labels for the behavior model. The population stream is split
// off the cluster root with label 3 (labels 1 and 2 are taken by the
// part-assignment permutation and the unstable-client draw); per-client
// streams are split off each client's root, whose label 7 is the delay
// stream. SplitLabeled children depend only on (seed, label), so behavior
// streams cannot perturb the static population's randomness.
// The attacker population draws from its own root label (4) rather than
// sharing behaviorPopLabel, so the attacker set is a pure function of
// (seed, n, AttackFrac) — turning attacks on or off cannot move churn
// membership, and vice versa.
const (
	behaviorPopLabel = 3
	attackPopLabel   = 4
	clientDriftLabel = 8
	clientChurnLabel = 9
)

// ---------------------------------------------------------------------------
// Speed drift

// driftTrack is one client's multiplicative random-walk compute multiplier.
// Factors are generated sequentially from a dedicated stream as the queried
// horizon extends, so multAt is a pure function of (seed, t) regardless of
// query order.
type driftTrack struct {
	r             *rng.RNG
	interval, mag float64
	lo, hi        float64
	factors       []float64 // factors[k] = multiplier during step k
}

func newDriftTrack(r *rng.RNG, cfg BehaviorConfig) *driftTrack {
	return &driftTrack{
		r:        r,
		interval: cfg.DriftInterval,
		mag:      cfg.DriftMag,
		lo:       1 / cfg.DriftClamp,
		hi:       cfg.DriftClamp,
		factors:  []float64{1}, // nominal speed until the first step
	}
}

// multAt returns the compute multiplier in effect at virtual time t.
func (d *driftTrack) multAt(t float64) float64 {
	k := 0
	if t > 0 {
		k = int(t / d.interval)
	}
	for len(d.factors) <= k {
		f := d.factors[len(d.factors)-1] * d.r.Uniform(1-d.mag, 1+d.mag)
		if f < d.lo {
			f = d.lo
		}
		if f > d.hi {
			f = d.hi
		}
		d.factors = append(d.factors, f)
	}
	return d.factors[k]
}

// ---------------------------------------------------------------------------
// Transient churn

// churnTrack is one client's offline-window schedule: alternating online and
// offline spans generated lazily from a dedicated stream. Like driftTrack,
// window k depends only on the stream's first k draws, so availability is a
// pure function of (seed, t).
type churnTrack struct {
	r       *rng.RNG
	on, off [2]float64
	horizon float64      // schedule generated up to this time
	offline [][2]float64 // offline spans [start, end)
}

func newChurnTrack(r *rng.RNG, cfg BehaviorConfig) *churnTrack {
	return &churnTrack{r: r, on: cfg.ChurnOn, off: cfg.ChurnOff}
}

// extend generates windows until the schedule covers time t.
func (c *churnTrack) extend(t float64) {
	for c.horizon <= t {
		start := c.horizon + c.r.Uniform(c.on[0], c.on[1])
		end := start + c.r.Uniform(c.off[0], c.off[1])
		c.offline = append(c.offline, [2]float64{start, end})
		c.horizon = end
	}
}

// offlineAt reports whether the client is inside an offline window at t.
func (c *churnTrack) offlineAt(t float64) bool {
	c.extend(t)
	for i := len(c.offline) - 1; i >= 0; i-- {
		w := c.offline[i]
		if t >= w[0] && t < w[1] {
			return true
		}
		if w[1] <= t {
			return false // spans are generated in increasing order
		}
	}
	return false
}

// overlapsOffline reports whether any offline window intersects the span
// (start, end].
func (c *churnTrack) overlapsOffline(start, end float64) bool {
	c.extend(end)
	for _, w := range c.offline {
		if w[0] > end {
			return false // windows are generated in increasing order
		}
		if w[1] > start {
			return true
		}
	}
	return false
}

// nextOnline returns the earliest time >= t the client is back online.
func (c *churnTrack) nextOnline(t float64) float64 {
	c.extend(t)
	for _, w := range c.offline {
		if t >= w[0] && t < w[1] {
			return w[1]
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Wiring into the cluster

// AttackTargets returns the uniform attacker set for a population of n
// clients under the given seed — the exact ids Population marks. It is
// exported so the live transport fabric can select the same deterministic
// attacker population from (seed, clients, frac) without a Population.
func AttackTargets(seed uint64, n int, frac float64) []int {
	if frac <= 0 || n <= 0 {
		return nil
	}
	return rng.New(seed).SplitLabeled(attackPopLabel).Choose(n, fracCount(frac, n))
}

// fracCount rounds frac·n to a count clamped to [0, n] — fractions above 1
// (a fedsim -churn typo, say) mean "everyone", not a Choose panic.
func fracCount(frac float64, n int) int {
	k := int(frac*float64(n) + 0.5)
	if k > n {
		k = n
	}
	return k
}
