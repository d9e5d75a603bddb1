// Package tiering implements FedAT's tiering module (§4): it takes profiled
// client response latencies and partitions clients into M logical tiers,
// tier 1 fastest. FedAT reuses TiFL's tiering approach (§2.1), so the same
// partition feeds both systems; the package also provides TiFL's adaptive,
// accuracy-based tier selector used by the TiFL baseline.
package tiering

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rng"
)

// Tiers is a partition of clients into latency tiers. Tier 0 is the
// fastest (the paper's tier 1).
type Tiers struct {
	// Members lists the client ids in each tier. The tiers are views of
	// one array, each clipped to its own length: a caller may permute ids
	// inside one tier but never appends to one.
	Members [][]int32
	// Assignment maps client id → tier index.
	Assignment []int32
}

// M returns the number of tiers.
func (t *Tiers) M() int { return len(t.Members) }

// Partition splits clients into m equal-count tiers by ascending latency
// (latencies[i] belongs to client i). Remainders go to the fastest tiers,
// matching an even profiling split. Within a tier, members are in latency
// order and equal latencies keep ascending ids; latencies compare the way
// cmp.Compare does (NaN below −Inf, −0 equal to +0).
//
// The order comes from a stable MSD radix sort of int32 client ids on
// sortKey(latency) − the smallest key. The first pass reads the latencies
// in id order and buckets the ids by the key's top 14 bits (fewer for
// fewer than 16384 clients); later passes sort one bucket at a time on
// the next 8 bits, gathering each member's latency, which stays in cache
// while its bucket is sorted. The sort allocates two n-entry id buffers
// and nothing else: the sorted one backs every Members[t], and the other,
// its scatter scratch, is overwritten with each client's tier and becomes
// Assignment.
func Partition(latencies []float64, m int) (*Tiers, error) {
	n := len(latencies)
	if m <= 0 || m > n {
		return nil, fmt.Errorf("tiering: cannot split %d clients into %d tiers", n, m)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("tiering: %d clients do not fit int32 ids", n)
	}
	// Offset keys: the smallest is 0, so only the low bits.Len64(hi−lo)
	// bits of any key can differ.
	lo, hi := ^uint64(0), uint64(0)
	for _, v := range latencies {
		k := sortKey(v)
		lo, hi = min(lo, k), max(hi, k)
	}
	ids, assign := make([]int32, n), make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	s := bucketSorter{latencies: latencies, lo: lo, ids: ids, scratch: assign}
	// More top buckets than clients would only cost histogram sweeps.
	spread := bits.Len64(hi - lo)
	w := min(spread, topBits, bits.Len(uint(n)))
	var hist [1<<topBits + 1]int32
	s.pass(0, n, spread, w, hist[:1<<w+1])

	t := &Tiers{Members: make([][]int32, m), Assignment: assign}
	pos := 0
	for tier := range m {
		end := (tier+1)*(n/m) + min(tier+1, n%m)
		for _, id := range ids[pos:end] {
			assign[id] = int32(tier)
		}
		t.Members[tier] = ids[pos:end:end]
		pos = end
	}
	return t, nil
}

// The radix sort's digits: the first pass takes 14 bits into a 64 KiB
// histogram on the stack, each later pass 8 bits into a 1 KiB one, and a
// bucket of at most insertionMax ids is insertion-sorted instead.
const (
	topBits      = 14
	bucketBits   = 8
	insertionMax = 24
)

// bucketSorter sorts buckets of Partition's ids on the offset key.
type bucketSorter struct {
	latencies []float64
	lo        uint64
	ids       []int32
	scratch   []int32
}

func (s *bucketSorter) key(id int32) uint64 { return sortKey(s.latencies[id]) - s.lo }

// sort stably orders ids[a:b], whose keys agree from bit top up, by their
// bits below it.
func (s *bucketSorter) sort(a, b, top int) {
	if top == 0 {
		return // equal keys: the ids already ascend
	}
	if b-a > insertionMax {
		var hist [1<<bucketBits + 1]int32
		s.pass(a, b, top, min(top, bucketBits), hist[:])
		return
	}
	ids := s.ids[a:b]
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && s.key(ids[j-1]) > s.key(ids[j]); j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}

// pass stably buckets ids[a:b], whose keys agree from bit top up, on the w
// bits below top, counting into hist (zeroed, at least 1<<w + 1 entries),
// and sorts each bucket on the bits below those.
func (s *bucketSorter) pass(a, b, top, w int, hist []int32) {
	top -= w
	shift, mask := uint(top), uint64(1)<<w-1
	ids, tmp := s.ids[a:b], s.scratch[a:b]
	for _, id := range ids {
		hist[s.key(id)>>shift&mask+1]++
	}
	for d := 1; d < len(hist); d++ {
		hist[d] += hist[d-1]
	}
	for _, id := range ids {
		d := s.key(id) >> shift & mask
		tmp[hist[d]] = id
		hist[d]++
	}
	copy(ids, tmp)
	start := 0
	for _, end := range hist[:1<<w] {
		if int(end)-start > 1 {
			s.sort(a+start, a+int(end), top)
		}
		start = int(end)
	}
}

// sortKey maps a latency to a uint64 whose unsigned order is cmp.Compare's
// order on float64: NaN gets 0, below −Inf; −0 becomes +0 (v + 0); a
// negative value flips every bit and a non-negative one only the sign bit,
// so larger magnitudes sort lower below zero and higher above it.
func sortKey(v float64) uint64 {
	if v != v {
		return 0
	}
	b := math.Float64bits(v + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
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
