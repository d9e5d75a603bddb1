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
	"errors"
	"fmt"
	"math"
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

// AppendEncode implements Codec.
func (p *Polyline) AppendEncode(out []byte, w []float64) []byte {
	s := p.scale()
	// Typical weights in (-1,1) at precision 4 need 3-4 chars; reserve 4.
	out = slices.Grow(out, 4*len(w))
	prev := int64(0)
	for _, v := range w {
		q := quantize(v, s)
		enc := q
		if p.Delta {
			enc = q - prev
			prev = q
		}
		out = appendVarint(out, zigzag(enc))
	}
	return out
}

// Decode implements Codec.
func (p *Polyline) Decode(data []byte, out []float64) error {
	s := p.scale()
	pos := 0
	prev := int64(0)
	for i := range out {
		u, n, err := readVarint(data[pos:])
		if err != nil {
			return err
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

// quantize rounds v*s to the nearest integer, clamping non-finite and
// out-of-range values so a diverged weight cannot corrupt a payload.
func quantize(v float64, s float64) int64 {
	x := v * s
	if math.IsNaN(x) {
		return 0
	}
	if x > maxMagnitude {
		x = maxMagnitude
	} else if x < -maxMagnitude {
		x = -maxMagnitude
	}
	return int64(math.Round(x))
}

// zigzag maps signed to unsigned so small magnitudes stay small.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

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

// readVarint decodes one value, returning it and the bytes consumed.
func readVarint(data []byte) (uint64, int, error) {
	var u uint64
	shift := uint(0)
	for i, b := range data {
		if b < asciiOffset {
			return 0, 0, fmt.Errorf("%w: byte %d below offset", ErrCorrupt, b)
		}
		c := b - asciiOffset
		u |= uint64(c&chunkMask) << shift
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
