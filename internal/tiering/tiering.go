// Package tiering implements FedAT's tiering module (§4): it takes profiled
// client response latencies and partitions clients into M logical tiers,
// tier 1 fastest. FedAT reuses TiFL's tiering approach (§2.1), so the same
// partition feeds both systems; the package also provides TiFL's adaptive,
// accuracy-based tier selector used by the TiFL baseline.
package tiering

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/rng"
)

// Tiers is a partition of clients into latency tiers. Tier 0 is the
// fastest (the paper's tier 1).
type Tiers struct {
	// Members lists the client ids in each tier.
	Members [][]int
	// Assignment maps client id → tier index.
	Assignment []int
}

// M returns the number of tiers.
func (t *Tiers) M() int { return len(t.Members) }

// Partition splits clients into m equal-count tiers by ascending latency
// (latencies[i] belongs to client i). Remainders go to the fastest tiers,
// matching an even profiling split.
func Partition(latencies []float64, m int) (*Tiers, error) {
	n := len(latencies)
	if m <= 0 || m > n {
		return nil, fmt.Errorf("tiering: cannot split %d clients into %d tiers", n, m)
	}
	sizes := make([]int, m)
	base, rem := n/m, n%m
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	return PartitionSizes(latencies, sizes)
}

// PartitionSizes splits clients into tiers of the given sizes by ascending
// latency — the Figure 10 configurations use explicit sizes.
func PartitionSizes(latencies []float64, sizes []int) (*Tiers, error) {
	n := len(latencies)
	total := 0
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("tiering: tier %d has non-positive size %d", i, s)
		}
		total += s
	}
	if total != n {
		return nil, fmt.Errorf("tiering: sizes sum to %d, want %d clients", total, n)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Latency, then id: a total order, so the unstable sort lands where a
	// stable sort by latency over ascending ids does.
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(latencies[a], latencies[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	t := &Tiers{
		Members:    make([][]int, len(sizes)),
		Assignment: make([]int, n),
	}
	pos := 0
	for tier, size := range sizes {
		t.Members[tier] = make([]int, size)
		copy(t.Members[tier], order[pos:pos+size])
		pos += size
		for _, id := range t.Members[tier] {
			t.Assignment[id] = tier
		}
	}
	return t, nil
}

// TiFLSelector implements TiFL's adaptive tier selection: every Interval
// selections the per-tier test accuracies refresh the selection
// probabilities, which weight tiers inversely to their accuracy so
// under-trained (typically slower) tiers catch up. Each tier carries
// credits bounding how often it may be selected; when every tier's credits
// are spent they are replenished so training can continue past the paper's
// round budget.
type TiFLSelector struct {
	Interval int

	credits   []int
	initial   int
	accs      []float64
	probs     []float64
	selectCnt int
}

// NewTiFLSelector builds a selector for m tiers with the given credits per
// tier and probability-refresh interval.
func NewTiFLSelector(m, creditsPerTier, interval int) *TiFLSelector {
	if m <= 0 || creditsPerTier <= 0 || interval <= 0 {
		panic("tiering: invalid TiFL selector configuration")
	}
	s := &TiFLSelector{
		Interval: interval,
		credits:  make([]int, m),
		initial:  creditsPerTier,
		accs:     make([]float64, m),
		probs:    make([]float64, m),
	}
	for i := range s.credits {
		s.credits[i] = creditsPerTier
	}
	for i := range s.probs {
		s.probs[i] = 1
	}
	return s
}

// Credits returns the remaining credits of each tier (copy).
func (s *TiFLSelector) Credits() []int {
	out := make([]int, len(s.credits))
	copy(out, s.credits)
	return out
}

// UpdateAccuracies records fresh per-tier test accuracies; the next
// refresh interval converts them into selection probabilities ∝ (1−acc).
func (s *TiFLSelector) UpdateAccuracies(accs []float64) {
	if len(accs) != len(s.accs) {
		panic("tiering: accuracy count mismatch")
	}
	copy(s.accs, accs)
	s.refreshProbs()
}

func (s *TiFLSelector) refreshProbs() {
	for i, a := range s.accs {
		p := 1 - a
		if p < 0.05 {
			p = 0.05 // keep every tier selectable
		}
		s.probs[i] = p
	}
}

// Select draws the next tier to train. Tiers without credits are skipped;
// when all are spent the credits replenish.
func (s *TiFLSelector) Select(r *rng.RNG) int {
	anyCredit := false
	for _, c := range s.credits {
		if c > 0 {
			anyCredit = true
			break
		}
	}
	if !anyCredit {
		for i := range s.credits {
			s.credits[i] = s.initial
		}
	}
	w := make([]float64, len(s.probs))
	for i := range w {
		if s.credits[i] > 0 {
			w[i] = s.probs[i]
		}
	}
	tier := r.ChooseWeighted(w)
	s.credits[tier]--
	s.selectCnt++
	return tier
}

// NeedsAccuracyRefresh reports whether a probability refresh is due, i.e.
// the selection count crossed the interval. TiFL pays for this refresh
// with an extra round of test-accuracy collection from every tier — the
// communication overhead §2.1 calls out.
func (s *TiFLSelector) NeedsAccuracyRefresh() bool {
	return s.selectCnt > 0 && s.selectCnt%s.Interval == 0
}
