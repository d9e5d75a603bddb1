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
	// Members lists the client ids in each tier. Partition's tiers are
	// views of one array, each clipped to its own length: a caller may
	// permute ids inside one tier but never appends to one.
	Members [][]int
	// Assignment maps client id → tier index.
	Assignment []int
}

// M returns the number of tiers.
func (t *Tiers) M() int { return len(t.Members) }

// Partition splits clients into m equal-count tiers by ascending latency
// (latencies[i] belongs to client i). Remainders go to the fastest tiers,
// matching an even profiling split. Within a tier, members are in latency
// order and equal latencies keep ascending ids; latencies compare the way
// cmp.Compare does (NaN below −Inf, −0 equal to +0).
//
// The order comes from a stable LSD radix sort of sortKey(latency) − the
// smallest key, 11 bits a pass. It sorts 8-byte words that hold key digits
// above the client id, so a pass moves one word per client, and its
// ping-pong buffers are its two outputs, the array behind every Members[t]
// and Assignment. Those words are ints, so Partition returns an error on a
// 32-bit platform.
func Partition(latencies []float64, m int) (*Tiers, error) {
	n := len(latencies)
	if m <= 0 || m > n {
		return nil, fmt.Errorf("tiering: cannot split %d clients into %d tiers", n, m)
	}
	if bits.UintSize < 64 {
		return nil, fmt.Errorf("tiering: Partition needs a 64-bit platform: its radix sort packs key digits and the client id into one int")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("tiering: %d clients do not fit the radix sort's 31-bit ids", n)
	}
	// Offset keys: the smallest is 0, so every digit above the keys' spread
	// is 0 for all of them and only ⌈keyBits/11⌉ passes can move anything.
	lo, hi := ^uint64(0), uint64(0)
	for _, v := range latencies {
		k := sortKey(v)
		lo, hi = min(lo, k), max(hi, k)
	}
	keyBits, idBits := bits.Len64(hi-lo), bits.Len(uint(n-1))
	digits := (keyBits + radixBits - 1) / radixBits
	// A word holds the key's digits from lowDigits up, above the client id.
	// When the whole key and the id overflow 64 bits, the low digits that do
	// not fit stay out of the words: pass 0 takes its digit from the key it
	// computes, and any other low pass from the client's latency.
	lowDigits := (max(keyBits+idBits-64, 0) + radixBits - 1) / radixBits
	lowBits, idMask := uint(lowDigits*radixBits), uint64(1)<<idBits-1

	var hist [radixPasses][1 << radixBits]int32
	for _, v := range latencies {
		k := sortKey(v) - lo
		// One line per digit: unrolled, the six counts do not wait on
		// each other.
		hist[0][k&radixMask]++
		hist[1][k>>(1*radixBits)&radixMask]++
		hist[2][k>>(2*radixBits)&radixMask]++
		hist[3][k>>(3*radixBits)&radixMask]++
		hist[4][k>>(4*radixBits)&radixMask]++
		hist[5][k>>(5*radixBits)&radixMask]++
	}
	// offsets turns digit p's counts into each bucket's first slot.
	offsets := func(p int) *[1 << radixBits]int32 {
		h := &hist[p]
		var sum int32
		for d, c := range h {
			h[d], sum = sum, sum+c
		}
		return h
	}

	order, assign := make([]int, n), make([]int, n)
	words, spare := order, assign
	// Pass 0 reads the clients in id order, so equal keys start, and stay,
	// in id order. It always runs: it is what builds the words.
	h := offsets(0)
	for i, v := range latencies {
		k := sortKey(v) - lo
		d := k & radixMask
		spare[h[d]] = int(k>>lowBits<<idBits | uint64(i))
		h[d]++
	}
	words, spare = spare, words
	for p := 1; p < digits; p++ {
		if hist[p][0] == int32(n) {
			continue // every key has digit 0 here: the pass would be the identity
		}
		h := offsets(p)
		if p < lowDigits {
			shift := uint(p * radixBits)
			for _, w := range words {
				d := (sortKey(latencies[uint64(w)&idMask]) - lo) >> shift & radixMask
				spare[h[d]] = w
				h[d]++
			}
		} else {
			shift := uint(idBits+p*radixBits) - lowBits
			for _, w := range words {
				d := uint64(w) >> shift & radixMask
				spare[h[d]] = w
				h[d]++
			}
		}
		words, spare = spare, words
	}
	for i, w := range words {
		order[i] = int(uint64(w) & idMask)
	}

	t := &Tiers{Members: make([][]int, m), Assignment: assign}
	base, rem := n/m, n%m
	pos := 0
	for tier := range m {
		size := base
		if tier < rem {
			size++
		}
		end := pos + size
		for _, id := range order[pos:end] {
			assign[id] = tier
		}
		t.Members[tier] = order[pos:end:end]
		pos = end
	}
	return t, nil
}

// The radix sort's digits: six passes of 11 bits cover a 64-bit key (the
// sixth sees 9), and one pass's histogram is 8 KiB. Partition's counting
// loop is unrolled for the six.
const (
	radixBits   = 11
	radixMask   = 1<<radixBits - 1
	radixPasses = (64 + radixBits - 1) / radixBits
)

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
