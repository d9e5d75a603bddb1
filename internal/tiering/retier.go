// Runtime re-tiering. The paper profiles client latencies once and the
// partition is static for the run (§4); under drifting or churning
// populations the profile goes stale — the regime dynamic-tiering follow-up
// work targets. Retier recomputes the partition from latencies OBSERVED
// during training, with two stabilizers:
//
//   - observations are EWMA-smoothed (Tracker), so one slow round does not
//     look like a slow client;
//   - migration needs to clear a hysteresis margin: a client moves tiers
//     only when its smoothed latency crosses the adjacent tier boundary by
//     a relative margin, so clients sitting near a boundary do not
//     oscillate with noise.
package tiering

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Tracker maintains EWMA-smoothed response-latency estimates per client.
// Observe folds one measured latency into the client's estimate with weight
// alpha; Estimates reports the current smoothed values (NaN for clients
// never observed — Retier keeps those in place).
type Tracker struct {
	alpha float64
	est   []float64
	seen  []bool
}

// NewTracker builds a tracker for n clients with smoothing weight alpha in
// (0, 1]; alpha 1 means "latest observation wins".
func NewTracker(n int, alpha float64) *Tracker {
	if n <= 0 || alpha <= 0 || alpha > 1 {
		panic("tiering: invalid tracker configuration")
	}
	return &Tracker{alpha: alpha, est: make([]float64, n), seen: make([]bool, n)}
}

// Observe folds one measured response latency for client id.
func (tr *Tracker) Observe(id int, latency float64) {
	if id < 0 || id >= len(tr.est) {
		return
	}
	if !tr.seen[id] {
		tr.est[id] = latency
		tr.seen[id] = true
		return
	}
	tr.est[id] += tr.alpha * (latency - tr.est[id])
}

// Estimates returns a copy of the smoothed latencies, NaN where no
// observation has arrived yet.
func (tr *Tracker) Estimates() []float64 {
	out := make([]float64, len(tr.est))
	for i, e := range tr.est {
		if tr.seen[i] {
			out[i] = e
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// RetierOpts tunes the re-tiering stabilizers.
type RetierOpts struct {
	// Margin is the relative hysteresis band around tier boundaries: a
	// client migrates only when its smoothed latency is beyond the adjacent
	// boundary by this fraction (default 0.15).
	Margin float64
}

// Retier re-partitions clients from smoothed observed latencies, anchored to
// the previous partition. smoothed[i] is client i's current latency estimate
// (NaN = never observed; such clients keep their tier). The returned
// partition has the same tier count as prev; moved is the number of clients
// whose tier changed. prev is never mutated, and when nothing moves the
// returned *Tiers is prev itself.
//
// The hysteresis rule: the boundary between adjacent tiers is the midpoint
// of their MEDIAN smoothed latencies (medians, so one drifting client
// cannot drag its own boundary along with it). A client migrates one tier
// per pass, and only when its estimate clears the adjacent boundary by the
// relative Margin — promotion needs est < boundary·(1−Margin), demotion
// est > boundary·(1+Margin). A noisy client straddling a boundary therefore
// stays put, while a genuine step-change clears the band after a few
// smoothed observations and walks to its new tier across passes.
func Retier(smoothed []float64, prev *Tiers, opts RetierOpts) (*Tiers, int, error) {
	n := len(smoothed)
	if prev == nil || len(prev.Assignment) != n {
		return nil, 0, fmt.Errorf("tiering: retier needs a previous partition over the same %d clients", n)
	}
	m := prev.M()
	margin := opts.Margin
	if margin <= 0 {
		margin = 0.15
	}
	if !slices.ContainsFunc(smoothed, func(v float64) bool { return !math.IsNaN(v) }) {
		return prev, 0, nil // nothing measured yet; keep the profile
	}
	med := tierMedians(smoothed, prev)

	assign := make([]int32, n)
	moved := 0
	for i, est := range smoothed {
		p := int(prev.Assignment[i])
		assign[i] = int32(p)
		if math.IsNaN(est) {
			continue // no evidence, no movement
		}
		if p > 0 {
			if b := (med[p-1] + med[p]) / 2; est < b*(1-margin) {
				assign[i]--
				moved++
				continue
			}
		}
		if p < m-1 {
			if b := (med[p] + med[p+1]) / 2; est > b*(1+margin) {
				assign[i]++
				moved++
			}
		}
	}
	if moved == 0 {
		return prev, 0, nil
	}

	sizes := make([]int, m)
	for _, tier := range assign {
		sizes[tier]++
	}
	// Hysteresis can empty a tier in tiny populations (everyone cleared the
	// band in the same direction). An empty tier would silently leave the
	// training loop, so fall back to the plain equal-split partition of the
	// current estimates (unobserved clients standing in at their previous
	// tier's median) — every tier stays populated by construction.
	if slices.Contains(sizes, 0) {
		filled := slices.Clone(smoothed)
		for i, v := range filled {
			if math.IsNaN(v) {
				filled[i] = med[prev.Assignment[i]]
			}
		}
		flat, err := Partition(filled, m)
		if err != nil {
			return nil, 0, err
		}
		return flat, migrations(prev, flat), nil
	}
	// The tiers are views of one id array, as Partition's are: each starts
	// empty with its size as capacity, and the appends fill it in id order.
	ids := make([]int32, n)
	next := &Tiers{Members: make([][]int32, m), Assignment: assign}
	pos := 0
	for tier, size := range sizes {
		next.Members[tier] = ids[pos : pos : pos+size]
		pos += size
	}
	for id, tier := range assign {
		next.Members[tier] = append(next.Members[tier], int32(id))
	}
	return next, moved, nil
}

// tierMedians computes each previous tier's median observed latency; tiers
// with no observed member fall back to the overall observed median, and with
// nothing observed at all to 0 (Retier returns early in that case).
func tierMedians(smoothed []float64, prev *Tiers) []float64 {
	var all []float64
	perTier := make([][]float64, prev.M())
	for tier, members := range prev.Members {
		for _, id := range members {
			if v := smoothed[id]; !math.IsNaN(v) {
				perTier[tier] = append(perTier[tier], v)
				all = append(all, v)
			}
		}
	}
	overall := median(all)
	out := make([]float64, prev.M())
	for tier, vs := range perTier {
		if len(vs) == 0 {
			out[tier] = overall
		} else {
			out[tier] = median(vs)
		}
	}
	return out
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// migrations counts assignment differences between two partitions.
func migrations(a, b *Tiers) int {
	n := 0
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			n++
		}
	}
	return n
}
