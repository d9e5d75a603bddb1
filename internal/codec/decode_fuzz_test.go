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
	{NewTopK(1), false},
}

// FuzzDecoders feeds arbitrary payloads to the top-k and raw decoders.
// Neither may panic; each either fails or writes exactly the len(out)
// coordinates it was given (guard cells on both sides stay untouched); and
// an accepted raw payload encodes back to the bytes it came from. Seeded
// from AppendEncode output at a sparse and a full top-k fraction and of
// several lengths, whole, truncated and with a corrupted length.
func FuzzDecoders(f *testing.F) {
	for i, d := range fuzzDecoders {
		for _, n := range []int{0, 1, 2, 8, 67} {
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
	// k = 2²⁹, whose 4+8k wraps to 4 in a 32-bit int.
	f.Add(uint8(0), []byte{0, 0, 0, 0x20}, 8)
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
		if re := d.codec.Encode(out); !bytes.Equal(re, data) {
			t.Fatalf("%s: accepted payload of %d bytes re-encodes to %d different bytes", d.codec.Name(), len(data), len(re))
		}
	})
}
