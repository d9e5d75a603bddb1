package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/rng"
)

// fuzzDecoders is the table FuzzDecoders picks from: every fixed-layout
// payload decoder a peer's bytes reach through decodeWire. verbatim marks
// the codecs whose accepted payloads must re-encode to the same bytes.
var fuzzDecoders = []struct {
	codec    Codec
	verbatim bool
}{
	{NewTopK(0.25), false},
	{Raw{}, true},
	{Float32{}, true},
	{Quant8{}, false},
}

// FuzzDecoders feeds arbitrary payloads to the top-k, raw, float32 and
// quant8 decoders. None may panic; each either fails or writes exactly the
// len(out) coordinates it was given (guard cells on both sides stay
// untouched); and an accepted raw or float32 payload encodes back to the
// bytes it came from. The one exception is float32's signalling NaN: the
// float32→float64 widening sets its quiet bit in hardware, so it comes back
// as the same NaN, quiet (sameFloat32Lane). Seeded from AppendEncode output
// of the lengths the codec tests use, whole, truncated and with a corrupted
// length.
func FuzzDecoders(f *testing.F) {
	for i, d := range fuzzDecoders {
		for _, n := range []int{0, 1, 8, 67} {
			enc := d.codec.AppendEncode(nil, randWeights(rng.New(uint64(n)+5), n, 0.5))
			f.Add(uint8(i), enc, n)
			f.Add(uint8(i), enc[:len(enc)/2], n)
			f.Add(uint8(i), append(enc, 0), n)
			f.Add(uint8(i), enc, n+1)
			if _, ok := d.codec.(*TopK); ok && len(enc) >= 4 {
				bad := bytes.Clone(enc)
				binary.LittleEndian.PutUint32(bad, binary.LittleEndian.Uint32(bad)+1)
				f.Add(uint8(i), bad, n)
				binary.LittleEndian.PutUint32(bad, math.MaxUint32)
				f.Add(uint8(i), bad, n)
			}
		}
	}
	// A top-k entry whose index lies past the destination.
	f.Add(uint8(0), []byte{1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0x80, 0x3f}, 8)
	// A float32 signalling NaN (0xffa43030).
	f.Add(uint8(2), []byte{0x30, 0x30, 0xa4, 0xff}, 1)
	f.Fuzz(func(t *testing.T, which uint8, data []byte, n int) {
		if n < 0 || n > 1<<12 {
			n = 8
		}
		d := fuzzDecoders[int(which)%len(fuzzDecoders)]
		const guard = 0x5EED
		buf := make([]float64, n+2)
		buf[0], buf[n+1] = guard, guard
		out := buf[1 : n+1]
		err := d.codec.Decode(data, out)
		if buf[0] != guard || buf[n+1] != guard {
			t.Fatalf("%s: decode wrote outside its %d-coordinate output", d.codec.Name(), n)
		}
		if err != nil || !d.verbatim {
			return
		}
		re := d.codec.Encode(out)
		if len(re) != len(data) {
			t.Fatalf("%s: accepted payload of %d bytes re-encodes to %d bytes", d.codec.Name(), len(data), len(re))
		}
		if _, ok := d.codec.(Float32); ok {
			for i := 0; i < len(data); i += 4 {
				if !sameFloat32Lane(binary.LittleEndian.Uint32(data[i:]), binary.LittleEndian.Uint32(re[i:])) {
					t.Fatalf("float32: coordinate %d re-encodes %08x as %08x", i/4, data[i:i+4], re[i:i+4])
				}
			}
		} else if !bytes.Equal(re, data) {
			t.Fatalf("%s: accepted payload re-encodes to different bytes", d.codec.Name())
		}
	})
}

// sameFloat32Lane reports whether a float32 coordinate survived a decode and
// re-encode: bit for bit, or as the NaN it was with the quiet bit set.
func sameFloat32Lane(in, out uint32) bool {
	const quiet = 1 << 22
	return in == out || (math.IsNaN(float64(math.Float32frombits(in))) && out == in|quiet)
}
