package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// extend grows dst by n bytes and returns the whole slice plus the new
// tail, for the fixed-width codecs that index into their payload.
func extend(dst []byte, n int) (all, tail []byte) {
	all = slices.Grow(dst, n)[:len(dst)+n]
	return all, all[len(dst):]
}

// Verbatim marks codecs whose Decode(Encode(w)) round-trip reproduces w
// bit-for-bit and whose payload size depends only on the vector length —
// the codecs whose cost a ledger can leave out. The simulated channel's own
// shortcut is Channel, which these codecs also implement.
type Verbatim interface {
	Codec
	// PayloadBytes returns len(Encode(w)) for any w with len(w) == n.
	PayloadBytes(n int) int
}

// Raw transmits float64s verbatim: the "No Compression" baseline of
// Figure 5.
type Raw struct{}

// Encode implements Codec.
func (c Raw) Encode(w []float64) []byte { return c.AppendEncode(nil, w) }

// AppendEncode implements Codec.
func (Raw) AppendEncode(dst []byte, w []float64) []byte {
	dst, out := extend(dst, 8*len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return dst
}

// Decode implements Codec.
func (Raw) Decode(data []byte, out []float64) error {
	if len(data) != 8*len(out) {
		return fmt.Errorf("%w: raw payload %d bytes, want %d", errCorrupt, len(data), 8*len(out))
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return nil
}

// PayloadBytes implements Verbatim: 8 bytes per coordinate.
func (Raw) PayloadBytes(n int) int { return 8 * n }

// Transmit implements Channel: the round-trip is the identity.
func (c Raw) Transmit(dst, w []float64) int {
	copy(dst, w)
	return c.PayloadBytes(len(w))
}
