// Package codec implements the model-compression schemes FedAT transmits
// weights with. The primary codec is the Encoded Polyline Algorithm (§4.3):
// each float is rounded to a configurable decimal precision, zigzag-encoded
// and emitted as base64-ish ASCII in 5-bit chunks with a continuation bit —
// Google's polyline format generalized from coordinates to weight vectors.
// An optional delta mode encodes successive differences, which shrinks
// payloads further when neighbouring weights are correlated.
//
// Baselines for the compression experiments: Raw (uncompressed float64),
// Float32 (half-width floats) and Quant8 (linear 8-bit quantization, the
// kind of scheme §4.3 argues loses too much under non-IID divergence).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Codec turns a weight vector into bytes and back. Encodings may be lossy;
// MaxError reports the worst-case absolute reconstruction error (0 for
// lossless, +Inf when input-dependent).
type Codec interface {
	Name() string
	// AppendEncode appends the encoding of w to dst and returns the extended
	// slice — the allocation-free entry point: a caller that recycles dst
	// encodes without touching the heap once dst has grown to size.
	AppendEncode(dst []byte, w []float64) []byte
	// Encode is AppendEncode into a fresh slice.
	Encode(w []float64) []byte
	// Decode reconstructs into out, which must have the original length.
	Decode(data []byte, out []float64) error
	// MaxError is the absolute error bound per coordinate.
	MaxError() float64
}

// Channel is the simulated channel's shortcut through a codec: Transmit
// writes into dst what Decode(AppendEncode(nil, w), dst) would and returns
// len(AppendEncode(nil, w)), without materialising the payload. dst has the
// length of w and does not overlap it. The simulator charges the returned
// size, so an implementation is held to the real round-trip bit for bit
// (FuzzPolylineAgainstReference, TestCommChannelMatchesWire).
type Channel interface {
	Transmit(dst, w []float64) (payloadBytes int)
}

// ErrCorrupt is returned when a payload cannot be decoded.
var ErrCorrupt = errors.New("codec: corrupt payload")

// polyline chunking constants (Google Encoded Polyline Algorithm Format).
const (
	chunkBits   = 5
	chunkMask   = 0x1F
	continueBit = 0x20
	asciiOffset = 63
	// maxMagnitude guards the fixed-point conversion: values are clamped so
	// the scaled integer stays well inside int64.
	maxMagnitude = 1 << 46
)

// Polyline is the paper's compressor. Precision is the number of decimal
// places kept (the paper evaluates 3..6 in Figure 5 and defaults to 4).
// Delta switches to successive-difference encoding.
type Polyline struct {
	Precision int
	Delta     bool
}

// NewPolyline returns the codec at the given precision in absolute mode.
func NewPolyline(precision int) *Polyline { return &Polyline{Precision: precision} }

// NewPolylineDelta returns the codec in delta mode.
func NewPolylineDelta(precision int) *Polyline {
	return &Polyline{Precision: precision, Delta: true}
}

// Name implements Codec.
func (p *Polyline) Name() string {
	mode := ""
	if p.Delta {
		mode = "-delta"
	}
	return fmt.Sprintf("polyline%d%s", p.Precision, mode)
}

// MaxError implements Codec: rounding to Precision decimals is off by at
// most half a unit in the last place.
func (p *Polyline) MaxError() float64 {
	return 0.5 * math.Pow(10, -float64(p.Precision))
}

func (p *Polyline) scale() float64 { return math.Pow(10, float64(p.Precision)) }

// Encode implements Codec.
func (p *Polyline) Encode(w []float64) []byte { return p.AppendEncode(nil, w) }

// Transmit implements Channel in one pass: quantize, count the chunks the
// value (or, in delta mode, its difference) takes on the wire, rescale.
// Decode's running sum of differences is the quantized value itself, so
// both modes reconstruct float64(q)/s.
func (p *Polyline) Transmit(dst, w []float64) int {
	s := p.scale()
	dst = dst[:len(w)]
	n := 0
	prev := int64(0)
	for i, v := range w {
		q := quantize(v * s)
		enc := q
		if p.Delta {
			enc = q - prev
			prev = q
		}
		n += int(chunkCount[bits.Len64(zigzag(enc))])
		dst[i] = float64(q) / s
	}
	return n
}

// TransmitFixed is Transmit stopped before the rescale: q receives the
// quantized integers and the return is the same payload size, so
// Reconstruct(dst, q) later writes Transmit's floats bit for bit. A
// simulated upload held this way costs 4 bytes a parameter while it is in
// flight instead of 8. ok is false when some quantized value does not fit in
// an int32 — a weight of magnitude about 2³¹·10⁻ᴾ or more, ±Inf included —
// and q and the size are then unspecified; the caller takes Transmit.
func (p *Polyline) TransmitFixed(q []int32, w []float64) (payloadBytes int, ok bool) {
	s := p.scale()
	q = q[:len(w)]
	n := 0
	prev := int64(0)
	for i, v := range w {
		x := quantize(v * s)
		if x != int64(int32(x)) {
			return 0, false
		}
		enc := x
		if p.Delta {
			enc = x - prev
			prev = x
		}
		n += int(chunkCount[bits.Len64(zigzag(enc))])
		q[i] = int32(x)
	}
	return n, true
}

// Reconstruct writes the weights TransmitFixed's integers decode to,
// float64(q)/s each — what Transmit would have written.
func (p *Polyline) Reconstruct(dst []float64, q []int32) {
	s := p.scale()
	dst = dst[:len(q)]
	for i, x := range q {
		dst[i] = float64(x) / s
	}
}

// AppendEncode implements Codec. A value of up to four chunks — at
// precision 4, any weight below 52 — is emitted as one 32-bit store of its
// four spread 5-bit groups, of which the first chunkCount bytes are kept;
// the rest, and the last values of a buffer without four spare bytes, take
// the byte loop.
func (p *Polyline) AppendEncode(out []byte, w []float64) []byte {
	s := p.scale()
	// Typical weights in (-1,1) at precision 4 need 3-4 chars; reserve 4.
	out = slices.Grow(out, 4*len(w))
	n := len(out)
	buf := out[:cap(out)]
	prev := int64(0)
	for _, v := range w {
		q := quantize(v * s)
		enc := q
		if p.Delta {
			enc = q - prev
			prev = q
		}
		u := zigzag(enc)
		if u >= 1<<(4*chunkBits) || n+4 > len(buf) {
			buf = appendVarint(buf[:n], u)
			n = len(buf)
			buf = buf[:cap(buf)]
			continue
		}
		k := chunkCount[bits.Len64(u)] & 7 // at most 4 here; the mask spares wordBase's bounds check
		x := uint32(u)
		spread := x&0x1F | x&0x3E0<<3 | x&0x7C00<<6 | x&0xF8000<<9
		binary.LittleEndian.PutUint32(buf[n:n+4], spread+wordBase[k])
		n += int(k)
	}
	return buf[:n]
}

// Decode implements Codec. While four bytes remain they are loaded and
// validated together, and a value of up to four chunks is resolved without
// a loop. Everything else — longer values, the payload's tail, any byte
// outside the alphabet — goes through readVarint, which owns the errors.
func (p *Polyline) Decode(data []byte, out []float64) error {
	s := p.scale()
	pos := 0
	prev := int64(0)
	for i := range out {
		u, n := uint64(0), 0
		if pos+4 <= len(data) {
			// Every byte of t has 01 in its top two bits exactly when all
			// four bytes are in 63..126 (a 255 wraps to 0 and fails itself);
			// its low six bits are then the chunk and continuation flag.
			t := binary.LittleEndian.Uint32(data[pos:]) + 0x01010101
			if t&0xC0C0C0C0 == 0x40404040 {
				switch {
				case t&0x20 == 0:
					u, n = uint64(t&0x1F), 1
				case t&0x2000 == 0:
					u, n = uint64(t&0x1F|t>>3&0x3E0), 2
				case t&0x200000 == 0:
					u, n = uint64(t&0x1F|t>>3&0x3E0|t>>6&0x7C00), 3
				case t&0x20000000 == 0:
					u, n = uint64(t&0x1F|t>>3&0x3E0|t>>6&0x7C00|t>>9&0xF8000), 4
				}
			}
		}
		if n == 0 {
			var err error
			if u, n, err = readVarint(data[pos:]); err != nil {
				return err
			}
		}
		pos += n
		v := unzigzag(u)
		if p.Delta {
			v += prev
			prev = v
		}
		out[i] = float64(v) / s
	}
	if pos != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-pos)
	}
	return nil
}

// roundBias is the largest float64 below one half. Adding it with the sign
// of x and truncating rounds half away from zero as math.Round does, and —
// unlike adding 0.5 — keeps 0.49999999999999994 from rounding up.
const roundBias = 0.49999999999999994

// quantize rounds x, a weight already scaled to fixed point, to the nearest
// integer, clamping non-finite and out-of-range values so a diverged weight
// cannot corrupt a payload. Inside the clamp range the biased truncation is
// bit-identical to math.Round.
func quantize(x float64) int64 {
	if x > -maxMagnitude && x < maxMagnitude {
		return int64(x + math.Copysign(roundBias, x))
	}
	switch {
	case x >= maxMagnitude:
		return maxMagnitude
	case x <= -maxMagnitude:
		return -maxMagnitude
	}
	return 0 // NaN
}

// zigzag maps signed to unsigned so small magnitudes stay small.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// chunkCount maps bits.Len64 of a zigzagged value to the number of 5-bit
// chunks, and so bytes, it takes on the wire.
var chunkCount = func() (t [65]uint8) {
	t[0] = 1
	for l := 1; l < len(t); l++ {
		t[l] = uint8((l + chunkBits - 1) / chunkBits)
	}
	return t
}()

// wordBase is what a k-chunk value's spread groups are added to in the
// four-byte store: the ASCII offset on every byte and the continuation bit
// on the low k-1.
var wordBase = [8]uint32{1: 0x3F3F3F3F, 2: 0x3F3F3F5F, 3: 0x3F3F5F5F, 4: 0x3F5F5F5F}

// appendVarint emits u in little-endian 5-bit chunks, each offset by 63 and
// flagged with the continuation bit except the last — the polyline wire
// format.
func appendVarint(out []byte, u uint64) []byte {
	for u >= continueBit {
		out = append(out, (byte(u&chunkMask)|continueBit)+asciiOffset)
		u >>= chunkBits
	}
	return append(out, byte(u)+asciiOffset)
}

// readVarint decodes one value, returning it and the bytes consumed. A byte
// outside the alphabet 63..126, or a 13th chunk with bits that would land
// above bit 63, marks a hostile or damaged payload: the encoder emits
// neither.
func readVarint(data []byte) (uint64, int, error) {
	var u uint64
	shift := uint(0)
	for i, b := range data {
		c := b - asciiOffset // wraps above the alphabet for b < 63
		if c > chunkMask|continueBit {
			return 0, 0, fmt.Errorf("%w: byte %d outside the polyline alphabet", ErrCorrupt, b)
		}
		v := uint64(c & chunkMask)
		if v<<shift>>shift != v {
			return 0, 0, fmt.Errorf("%w: varint overflow", ErrCorrupt)
		}
		u |= v << shift
		if c&continueBit == 0 {
			return u, i + 1, nil
		}
		shift += chunkBits
		if shift > 63 {
			return 0, 0, fmt.Errorf("%w: varint overflow", ErrCorrupt)
		}
	}
	return 0, 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
}
