package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// TopK is the magnitude-sparsification baseline from the communication-
// efficient FL literature the paper surveys (§2.2, e.g. sparse binary
// compression): only the k largest-magnitude coordinates are transmitted as
// (index, float32) pairs; the receiver fills the rest with zeros.
//
// It compresses the opt-in edge→cloud delta uplink (-uplink-topk) and is
// not a Channel, so it cannot be a run's model
// codec: under non-IID FL the dropped coordinates are exactly the
// small-but-systematic updates the slow tiers contribute, which is why the
// paper prefers a precision-bounded codec over a sparsity-bounded one.
type TopK struct {
	// Frac is the fraction of coordinates kept, in (0, 1].
	Frac float64
}

// NewTopK returns the codec keeping the given fraction of coordinates.
func NewTopK(frac float64) *TopK {
	if frac <= 0 || frac > 1 {
		panic("codec: TopK fraction must be in (0,1]")
	}
	return &TopK{Frac: frac}
}

// Encode implements Codec.
func (t *TopK) Encode(w []float64) []byte { return t.AppendEncode(nil, w) }

// AppendEncode implements Codec. Payload: count u32, then count × (index
// u32, value float32). The payload lands in dst; the index sort below still
// allocates its scratch — top-k is the opt-in uplink, not the steady-state
// path.
func (t *TopK) AppendEncode(dst []byte, w []float64) []byte {
	k := int(t.Frac * float64(len(w)))
	if k < 1 && len(w) > 0 {
		k = 1
	}
	idx := make([]int, len(w))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection would be faster; a full sort keeps the payload
	// deterministic (ties broken by index) which the reproducibility
	// guarantees require.
	sort.SliceStable(idx, func(a, b int) bool {
		return math.Abs(w[idx[a]]) > math.Abs(w[idx[b]])
	})
	keep := idx[:k]
	sort.Ints(keep)
	dst, out := extend(dst, 4+8*k)
	binary.LittleEndian.PutUint32(out, uint32(k))
	for i, j := range keep {
		binary.LittleEndian.PutUint32(out[4+8*i:], uint32(j))
		binary.LittleEndian.PutUint32(out[8+8*i:], math.Float32bits(float32(w[j])))
	}
	return dst
}

// Decode implements Codec.
func (t *TopK) Decode(data []byte, out []float64) error {
	if len(data) < 4 {
		return fmt.Errorf("%w: topk payload too short", errCorrupt)
	}
	// Size the count in 64 bits: 4+8k wraps a 32-bit int for k ≥ 2²⁸.
	k32 := binary.LittleEndian.Uint32(data)
	if uint64(len(data)) != 4+8*uint64(k32) {
		return fmt.Errorf("%w: topk payload %d bytes for k=%d", errCorrupt, len(data), k32)
	}
	k := int(k32)
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < k; i++ {
		j := int(binary.LittleEndian.Uint32(data[4+8*i:]))
		if j < 0 || j >= len(out) {
			return fmt.Errorf("%w: topk index %d out of range", errCorrupt, j)
		}
		out[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(data[8+8*i:])))
	}
	return nil
}
