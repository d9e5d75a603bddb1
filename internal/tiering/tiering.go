// Package tiering implements FedAT's tiering module (§4): it takes profiled
// client response latencies and partitions clients into M logical tiers,
// tier 1 fastest. FedAT reuses TiFL's tiering approach (§2.1), so the same
// partition feeds both systems.
package tiering

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/parallel"
)

// Tiers is a partition of clients into latency tiers. Tier 0 is the
// fastest (the paper's tier 1).
type Tiers struct {
	// Members lists the client ids in each tier. The tiers are views of
	// one array, each clipped to its own length: a caller may permute ids
	// inside one tier but never appends to one.
	Members [][]int32
}

// M returns the number of tiers.
func (t *Tiers) M() int { return len(t.Members) }

// size returns the number of clients the tiers hold.
func (t *Tiers) size() int {
	n := 0
	for _, members := range t.Members {
		n += len(members)
	}
	return n
}

// Assignment builds the client id → tier table from Members, a fresh
// table on every call. A partition keeps only its member lists; a caller
// that looks up many clients' tiers builds the table once and keeps it.
func (t *Tiers) Assignment() []int32 {
	assign := make([]int32, t.size())
	for tier, members := range t.Members {
		for _, id := range members {
			assign[id] = int32(tier)
		}
	}
	return assign
}

// Partition splits clients into m equal-count tiers by ascending latency
// (latencies[i] belongs to client i); it is PartitionFunc over the slice.
func Partition(latencies []float64, m int) (*Tiers, error) {
	return PartitionFunc(len(latencies), m, func(i int) float64 { return latencies[i] })
}

// PartitionFunc splits clients 0…n−1 into m equal-count tiers by ascending
// latency(i). Remainders go to the fastest tiers, matching an even
// profiling split. Within a tier, members are in latency order and equal
// latencies keep ascending ids; latencies compare the way cmp.Compare does
// (NaN below −Inf, −0 equal to +0). latency must be pure and safe for
// concurrent calls: the partition asks for each client's latency three
// times (three more per split of a bucket too large to gather), from
// parallel workers, and stores none of them.
//
// The order comes from a stable MSD radix sort of int32 client ids on
// sortKey(latency). The first pass buckets the ids by the top 16 bits (or
// fewer) of the key's offset within a range taken from a strided sample of
// about 16k clients; a key outside that range clamps to the end bucket, so
// the bucket map stays monotone. Workers count their own blocks of ids,
// then place ids in id order straight into the one n-entry array that backs
// every Members[t], so ties already ascend. Each bucket is then sorted on
// its own: its members' keys are recomputed into a pair buffer and sorted
// on 8-bit digits, a bucket too large for the buffer first splitting again
// on its exact key range. Workers take the buckets by position.
func PartitionFunc(n, m int, latency func(int) float64) (*Tiers, error) {
	if m <= 0 || m > n {
		return nil, fmt.Errorf("tiering: cannot split %d clients into %d tiers", n, m)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("tiering: %d clients do not fit int32 ids", n)
	}
	lo, hi := ^uint64(0), uint64(0)
	for i, stride := 0, max(1, n>>sampleBits); i < n; i += stride {
		k := sortKey(latency(i))
		lo, hi = min(lo, k), max(hi, k)
	}
	// Only the low bits.Len64(hi−lo) bits of an offset key can differ, and
	// more top buckets than clients would only cost histogram sweeps.
	spread := bits.Len64(hi - lo)
	w := min(spread, topBits, bits.Len(uint(n)))
	shift := uint(spread - w)

	// Each worker counts, then places, a contiguous block of ids; a block
	// is at least minBlock ids, so each worker past the first adds at most
	// one histogram entry per 4 clients.
	workers := parallel.Workers(n / minBlock)
	chunk := (n + workers - 1) / workers
	block := func(wk int) (int, int) { return min(wk*chunk, n), min((wk+1)*chunk, n) }
	buckets := 1 << w
	counts := make([]int32, workers*buckets)
	parallel.ForWorkers(workers, workers, func(wk int) {
		hist := counts[wk*buckets : (wk+1)*buckets]
		a, b := block(wk)
		for i := a; i < b; i++ {
			hist[clampedDigit(sortKey(latency(i)), lo, hi, shift)]++
		}
	})
	// Each bucket holds worker 0's share first; counts becomes each
	// worker's next slot in each bucket.
	pos := int32(0)
	for d := range buckets {
		for wk := range workers {
			c := &counts[wk*buckets+d]
			*c, pos = pos, pos+*c
		}
	}
	ids := make([]int32, n)
	parallel.ForWorkers(workers, workers, func(wk int) {
		next := counts[wk*buckets : (wk+1)*buckets]
		a, b := block(wk)
		for i := a; i < b; i++ {
			d := clampedDigit(sortKey(latency(i)), lo, hi, shift)
			ids[next[d]] = int32(i)
			next[d]++
		}
	})
	// The last worker's next slots are now the buckets' ends. A worker
	// sorts the buckets that end inside its block, so every bucket has one
	// owner whatever its size.
	ends := counts[(workers-1)*buckets:]
	sorters := make([]bucketSorter, workers)
	for wk, first := 0, 0; wk < workers; wk++ {
		_, b := block(wk)
		last := first
		for last < buckets && int(ends[last]) <= b {
			last++
		}
		sorters[wk] = bucketSorter{latency: latency, ids: ids, ends: ends[:last], first: first}
		first = last
	}
	parallel.ForWorkers(workers, workers, func(wk int) { sorters[wk].sortBuckets() })

	t := &Tiers{Members: make([][]int32, m)}
	start := 0
	for tier := range m {
		end := (tier+1)*(n/m) + min(tier+1, n%m)
		t.Members[tier] = ids[start:end:end]
		start = end
	}
	return t, nil
}

// The radix sort's digits: the first pass takes up to 16 bits, later
// passes 8 bits into a 1 KiB histogram on the stack, and a bucket of at
// most insertionMax ids is insertion-sorted instead.
const (
	topBits      = 16
	digitBits    = 8
	insertionMax = 32
)

// The sort's scale: the first pass's key range comes from every
// n>>sampleBits-th client, minBlock is the fewest ids one worker counts and
// places, and a bucket of more than pairMax ids splits on its exact range
// before its keys are gathered, which caps each worker's pair buffers at
// 2 × pairMax × 16 B. They are variables so the tests can clamp keys,
// split work and split buckets on small inputs.
var (
	sampleBits = 14
	minBlock   = 1 << 18
	pairMax    = 1 << 14
)

// keyed is one client's sort key next to its id.
type keyed struct {
	key uint64
	id  int32
}

// bucketSorter is one worker's state for sorting buckets of PartitionFunc's
// ids: the buckets it owns, the latency source, and buffers that grow to
// the largest bucket it has met, with one split histogram per level of
// splitting.
type bucketSorter struct {
	latency func(int) float64
	ids     []int32
	// ends[first:] are the ends of the buckets this worker sorts; ends
	// reaches back to the first bucket so the first one's start is known.
	ends     []int32
	first    int
	pairs    []keyed
	tmp      []keyed
	scratch  []int32
	splitMax int
	hists    [][]int32
}

func (s *bucketSorter) key(id int32) uint64 { return sortKey(s.latency(int(id))) }

// sortBuckets sorts every bucket the worker owns. It sizes the pair
// buffers for the largest of at most pairMax ids up front, and notes the
// largest beyond that for the split scratch, which no bucket a split
// makes can outgrow and which is allocated on the first split that moves
// ids.
func (s *bucketSorter) sortBuckets() {
	start := 0
	if s.first > 0 {
		start = int(s.ends[s.first-1])
	}
	small, a := 0, start
	for _, end := range s.ends[s.first:] {
		if n := int(end) - a; n <= pairMax {
			small = max(small, n)
		} else {
			s.splitMax = max(s.splitMax, n)
		}
		a = int(end)
	}
	s.grow(small)
	for _, end := range s.ends[s.first:] {
		s.sort(start, int(end), 0)
		start = int(end)
	}
}

// grow makes the pair buffers hold at least n pairs, n ≤ pairMax; a
// split's buckets may outgrow the ones the buffers were sized for. Both
// buffers share one allocation.
func (s *bucketSorter) grow(n int) {
	if n > len(s.pairs) {
		size := min(max(n, 2*len(s.pairs)), pairMax)
		buf := make([]keyed, 2*size)
		s.pairs, s.tmp = buf[:size], buf[size:]
	}
}

// sort stably orders ids[a:b], which are in ascending id order, by key;
// depth is the number of splits the bucket lies inside.
func (s *bucketSorter) sort(a, b, depth int) {
	n := b - a
	if n < 2 {
		return
	}
	if n > pairMax {
		s.split(a, b, depth)
		return
	}
	s.grow(n)
	pairs := s.pairs[:n]
	lo, hi := ^uint64(0), uint64(0)
	for j, id := range s.ids[a:b] {
		k := s.key(id)
		pairs[j] = keyed{k, id}
		lo, hi = min(lo, k), max(hi, k)
	}
	if lo == hi {
		return // equal keys: the ids already ascend
	}
	sortKeyed(pairs, s.tmp[:n], lo, bits.Len64(hi-lo))
	for j, p := range pairs {
		s.ids[a+j] = p.id
	}
}

// split stably buckets ids[a:b], too many for the pair buffer, on the top
// bits of their exact key range, then sorts each bucket.
func (s *bucketSorter) split(a, b, depth int) {
	ids := s.ids[a:b]
	lo, hi := ^uint64(0), uint64(0)
	for _, id := range ids {
		k := s.key(id)
		lo, hi = min(lo, k), max(hi, k)
	}
	if lo == hi {
		return
	}
	spread := bits.Len64(hi - lo)
	w := min(spread, topBits, bits.Len(uint(len(ids))))
	shift := uint(spread - w)
	if depth == len(s.hists) {
		s.hists = append(s.hists, make([]int32, 1<<topBits+1))
	}
	hist := s.hists[depth][:1<<w+1]
	clear(hist)
	for _, id := range ids {
		hist[(s.key(id)-lo)>>shift+1]++
	}
	for d := 1; d < len(hist); d++ {
		hist[d] += hist[d-1]
	}
	if s.scratch == nil {
		s.scratch = make([]int32, s.splitMax)
	}
	tmp := s.scratch[:len(ids)]
	for _, id := range ids {
		d := (s.key(id) - lo) >> shift
		tmp[hist[d]] = id
		hist[d]++
	}
	copy(ids, tmp)
	start := 0
	for _, end := range hist[:1<<w] {
		s.sort(a+start, a+int(end), depth+1)
		start = int(end)
	}
}

// sortKeyed stably orders pairs, whose keys minus lo agree from bit top up,
// by their bits below it, using tmp (as long as pairs) as scatter scratch.
func sortKeyed(pairs, tmp []keyed, lo uint64, top int) {
	if top == 0 {
		return
	}
	if len(pairs) <= insertionMax {
		for i := 1; i < len(pairs); i++ {
			for j := i; j > 0 && pairs[j-1].key > pairs[j].key; j-- {
				pairs[j-1], pairs[j] = pairs[j], pairs[j-1]
			}
		}
		return
	}
	w := min(top, digitBits)
	top -= w
	shift, mask := uint(top), uint64(1)<<w-1
	var hist [1<<digitBits + 1]int32
	for _, p := range pairs {
		hist[(p.key-lo)>>shift&mask+1]++
	}
	for d := 1; d <= 1<<w; d++ {
		hist[d] += hist[d-1]
	}
	for _, p := range pairs {
		d := (p.key - lo) >> shift & mask
		tmp[hist[d]] = p
		hist[d]++
	}
	copy(pairs, tmp)
	start := 0
	for _, end := range hist[:1<<w] {
		if int(end)-start > 1 {
			sortKeyed(pairs[start:end], tmp[start:end], lo, top)
		}
		start = int(end)
	}
}

// clampedDigit is key's first-pass bucket: its offset within [lo, hi],
// clamped to that range, above bit shift.
func clampedDigit(key, lo, hi uint64, shift uint) uint64 {
	return (min(max(key, lo), hi) - lo) >> shift
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
