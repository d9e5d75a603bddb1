// Package codec implements the model-compression schemes FedAT transmits
// weights with. The primary codec is the Encoded Polyline Algorithm (§4.3):
// each float is rounded to a configurable decimal precision, zigzag-encoded
// and emitted as base64-ish ASCII in 5-bit chunks with a continuation bit —
// Google's polyline format generalized from coordinates to weight vectors.
//
// Raw (uncompressed float64) is the "No Compression" baseline. Both are
// Channels, the only codecs a run transmits with. TopK sparsifies the
// edge→cloud and client delta uplinks and never carries a whole model.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Codec turns a weight vector into bytes and back. Encodings may be lossy.
type Codec interface {
	// AppendEncode appends the encoding of w to dst and returns the extended
	// slice — the allocation-free entry point: a caller that recycles dst
	// encodes without touching the heap once dst has grown to size.
	AppendEncode(dst []byte, w []float64) []byte
	// Encode is AppendEncode into a fresh slice.
	Encode(w []float64) []byte
	// Decode reconstructs into out, which must have the original length.
	Decode(data []byte, out []float64) error
}

// Channel is a codec the simulated channel can take a shortcut through, and
// the only kind a run transmits models with: Transmit writes into dst what
// Decode(AppendEncode(nil, w), dst) would and returns len(AppendEncode(nil,
// w)), without materialising the payload. dst has the length of w and does
// not overlap it. The simulator charges the returned size, so an
// implementation is held to the real round-trip bit for bit
// (FuzzPolylineAgainstReference, TestCommChannelMatchesWire).
type Channel interface {
	Codec
	Transmit(dst, w []float64) (payloadBytes int)
}

// errCorrupt is returned when a payload cannot be decoded.
var errCorrupt = errors.New("codec: corrupt payload")

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

// Polyline is the paper's compressor. precision is the number of decimal
// places kept (the paper evaluates 3..6 in Figure 5 and defaults to 4).
type Polyline struct {
	precision int
}

// NewPolyline returns the codec at the given precision.
func NewPolyline(precision int) *Polyline { return &Polyline{precision: precision} }

func (p *Polyline) scale() float64 { return math.Pow(10, float64(p.precision)) }

// Encode implements Codec.
func (p *Polyline) Encode(w []float64) []byte { return p.AppendEncode(nil, w) }

// Transmit implements Channel in one pass: quantize, count the chunks the
// value takes on the wire, rescale.
func (p *Polyline) Transmit(dst, w []float64) int {
	s := p.scale()
	dst = dst[:len(w)]
	n := 0
	for i, v := range w {
		q := quantize(v * s)
		n += int(chunkCount[bits.Len64(zigzag(q))])
		dst[i] = float64(q) / s
	}
	return n
}

// Fixed is a polyline-quantized vector held at 16 bits a value, the form a
// simulated upload waits in while it is in flight (TransmitFixed,
// Reconstruct). One int16 array holds it: q[:n] is every value's low 16
// bits, which is the value itself when it fits an int16. Each value that
// does not is also listed after them as an (index, value) pair of int32s,
// two int16s each and in ascending index order, and Reconstruct patches it
// over the int16 pass. Past n/4 such values the list would cost more than
// an int32 a value, so the vector is held dense instead: q[n:2n] is then
// every value's high 16 bits. Either way q never needs more than 2n int16s,
// the bytes of an int32 a value. A Fixed is reused from vector to vector
// and its array grows to the largest form it has held; the first array is
// sized for n values, and the allocator's round-up leaves a short list
// room.
type Fixed struct {
	q     []int16
	n     int
	dense bool
}

// Len is the length of the vector f holds.
func (f *Fixed) Len() int { return f.n }

// resize sets len(q) to size, reallocating only when q has no room: to
// size or a quarter more than now, up to the dense form's 2n.
func (f *Fixed) resize(size int) {
	if size <= cap(f.q) {
		f.q = f.q[:size]
		return
	}
	q := slices.Grow([]int16(nil), min(max(size, cap(f.q)+cap(f.q)/4), 2*f.n))
	f.q = append(q, f.q...)[:size]
}

// put32 stores x in two int16s, low half first; get32 reads it back.
func put32(d []int16, x int32) { d[0], d[1] = int16(x), int16(x>>16) }

func get32(d []int16) int32 { return int32(uint16(d[0])) | int32(d[1])<<16 }

// TransmitFixed is Transmit stopped before the rescale: f receives the
// quantized integers and the return is the same payload size, so
// Reconstruct(dst, f) later writes Transmit's floats bit for bit. ok is
// false when some quantized value does not fit in an int32 — a weight of
// magnitude about 2³¹·10⁻ᴾ or more, ±Inf included — and f and the size are
// then unspecified; the caller takes Transmit.
func (p *Polyline) TransmitFixed(f *Fixed, w []float64) (payloadBytes int, ok bool) {
	f.n, f.dense = len(w), false
	f.resize(len(w))
	q := f.q
	s := p.scale()
	n := 0
	for i, v := range w {
		x := quantize(v * s)
		q[i] = int16(x)
		if x != int64(int16(x)) {
			if x != int64(int32(x)) {
				return 0, false
			}
			k := len(q)
			if k+4 > 2*len(w) {
				return p.transmitDense(f, w)
			}
			f.resize(k + 4)
			q = f.q
			put32(q[k:], int32(i))
			put32(q[k+2:], int32(x))
		}
		n += int(chunkCount[bits.Len64(zigzag(x))])
	}
	return n, true
}

// transmitDense is TransmitFixed's pass, from the start, over a vector with
// more than n/4 values outside int16: low halves in q[:n], high in q[n:].
func (p *Polyline) transmitDense(f *Fixed, w []float64) (int, bool) {
	f.dense = true
	f.resize(2 * len(w))
	lo, hi := f.q[:len(w)], f.q[len(w):]
	s := p.scale()
	n := 0
	for i, v := range w {
		x := quantize(v * s)
		if x != int64(int32(x)) {
			return 0, false
		}
		lo[i], hi[i] = int16(x), int16(x>>16)
		n += int(chunkCount[bits.Len64(zigzag(x))])
	}
	return n, true
}

// Reconstruct writes the weights TransmitFixed's integers decode to,
// float64(q)/s each — what Transmit would have written.
func (p *Polyline) Reconstruct(dst []float64, f *Fixed) {
	s := p.scale()
	lo, tail := f.q[:f.n], f.q[f.n:]
	dst = dst[:f.n]
	if f.dense {
		hi := tail[:f.n]
		for i, x := range lo {
			dst[i] = float64(int32(hi[i])<<16|int32(uint16(x))) / s
		}
		return
	}
	for i, x := range lo {
		dst[i] = float64(x) / s
	}
	for k := 0; k+4 <= len(tail); k += 4 {
		dst[get32(tail[k:])] = float64(get32(tail[k+2:])) / s
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
	for _, v := range w {
		u := zigzag(quantize(v * s))
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
		out[i] = float64(unzigzag(u)) / s
	}
	if pos != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(data)-pos)
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
			return 0, 0, fmt.Errorf("%w: byte %d outside the polyline alphabet", errCorrupt, b)
		}
		v := uint64(c & chunkMask)
		if v<<shift>>shift != v {
			return 0, 0, fmt.Errorf("%w: varint overflow", errCorrupt)
		}
		u |= v << shift
		if c&continueBit == 0 {
			return u, i + 1, nil
		}
		shift += chunkBits
		if shift > 63 {
			return 0, 0, fmt.Errorf("%w: varint overflow", errCorrupt)
		}
	}
	return 0, 0, fmt.Errorf("%w: truncated varint", errCorrupt)
}
