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

// Name implements Codec.
func (Raw) Name() string { return "raw" }

// MaxError implements Codec.
func (Raw) MaxError() float64 { return 0 }

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
		return fmt.Errorf("%w: raw payload %d bytes, want %d", ErrCorrupt, len(data), 8*len(out))
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

// Float32 halves the payload by casting to float32, a common cheap
// baseline.
type Float32 struct{}

// Name implements Codec.
func (Float32) Name() string { return "float32" }

// MaxError implements Codec: relative error of a float32 cast; for weights
// bounded by ~10 this is ~1e-6 absolute.
func (Float32) MaxError() float64 { return 1e-5 }

// Encode implements Codec.
func (c Float32) Encode(w []float64) []byte { return c.AppendEncode(nil, w) }

// AppendEncode implements Codec.
func (Float32) AppendEncode(dst []byte, w []float64) []byte {
	dst, out := extend(dst, 4*len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(v)))
	}
	return dst
}

// Decode implements Codec.
func (Float32) Decode(data []byte, out []float64) error {
	if len(data) != 4*len(out) {
		return fmt.Errorf("%w: float32 payload %d bytes, want %d", ErrCorrupt, len(data), 4*len(out))
	}
	for i := range out {
		out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:])))
	}
	return nil
}

// Quant8 linearly quantizes the vector into 8-bit codes against the payload
// min/max. This is the quantization-style baseline §4.3 argues degrades
// under non-IID weight divergence: its error scales with the weight RANGE,
// so a few diverged coordinates blow up the error of every coordinate —
// unlike polyline whose error is a fixed decimal precision.
type Quant8 struct{}

// Name implements Codec.
func (Quant8) Name() string { return "quant8" }

// MaxError implements Codec: input-dependent.
func (Quant8) MaxError() float64 { return math.Inf(1) }

// Encode implements Codec.
func (c Quant8) Encode(w []float64) []byte { return c.AppendEncode(nil, w) }

// AppendEncode implements Codec. Payload: min, max float64 then one code
// byte per value.
func (Quant8) AppendEncode(dst []byte, w []float64) []byte {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range w {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if len(w) == 0 {
		lo, hi = 0, 0
	}
	dst, out := extend(dst, 16+len(w))
	binary.LittleEndian.PutUint64(out, math.Float64bits(lo))
	binary.LittleEndian.PutUint64(out[8:], math.Float64bits(hi))
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	for i, v := range w {
		code := math.Round((v - lo) / span * 255)
		out[16+i] = byte(code)
	}
	return dst
}

// Decode implements Codec.
func (Quant8) Decode(data []byte, out []float64) error {
	if len(data) != 16+len(out) {
		return fmt.Errorf("%w: quant8 payload %d bytes, want %d", ErrCorrupt, len(data), 16+len(out))
	}
	lo := math.Float64frombits(binary.LittleEndian.Uint64(data))
	hi := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	for i := range out {
		out[i] = lo + float64(data[16+i])/255*span
	}
	return nil
}
