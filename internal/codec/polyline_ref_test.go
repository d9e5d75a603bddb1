package codec

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// The reference polyline codec: the plain bodies the kernels in polyline.go
// replaced — math.Round behind a clamp ladder, one appendVarint or
// readVarint per value. They define the wire format; the fuzz target below
// holds AppendEncode, Decode and Transmit to them bit for bit.

func refQuantize(v float64, s float64) int64 {
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

func refAppendEncode(p *Polyline, out []byte, w []float64) []byte {
	s := p.scale()
	for _, v := range w {
		out = appendVarint(out, zigzag(refQuantize(v, s)))
	}
	return out
}

func refDecode(p *Polyline, data []byte, out []float64) error {
	s := p.scale()
	pos := 0
	for i := range out {
		u, n, err := readVarint(data[pos:])
		if err != nil {
			return err
		}
		pos += n
		out[i] = float64(unzigzag(u)) / s
	}
	if pos != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(data)-pos)
	}
	return nil
}

// edgeWeights is the fuzz seed for one scale: every input class the
// quantizer and the size classes distinguish.
func edgeWeights(s float64) []float64 {
	w := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e300, -1e300, 0.5, -0.25}
	both := func(v float64) { w = append(w, v, -v) }
	for _, k := range []float64{0, 1, 2, 7, 1000, 1 << 30} {
		both((k + 0.5) / s) // ties, to within the rounding of the division
	}
	both(roundBias / s)
	for _, x := range []float64{maxMagnitude, maxMagnitude - 1, maxMagnitude - 0.5, maxMagnitude + 1, 1 << 52, 1 << 62, 1 << 63} {
		both(x / s)
		both(math.Nextafter(x, 0) / s)
	}
	// Both sides of every size-class boundary, up to ten chunks.
	for k := 1; k <= 9; k++ {
		u := uint64(1) << (chunkBits * k)
		for _, z := range []uint64{u - 2, u - 1, u, u + 1} {
			w = append(w, float64(unzigzag(z))/s)
		}
	}
	// A five-chunk value before small ones leaves fewer than four spare
	// bytes in a buffer grown to exactly 4 per value.
	return append(w, 1e9/s, 0.1, -0.1, 0)
}

// decodeBoth runs the reference and the fast decoder over one payload into
// dirty destinations and requires the same error-ness and, on success, the
// same floats bit for bit.
func decodeBoth(t *testing.T, p *Polyline, data []byte, n int) []float64 {
	t.Helper()
	want, got := make([]float64, n), make([]float64, n)
	for i := range want {
		want[i], got[i] = math.NaN(), math.Inf(1)
	}
	refErr, err := refDecode(p, data, want), p.Decode(data, got)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("%s: Decode(%q) error %v, reference %v", p.Name(), data, err, refErr)
	}
	if err != nil {
		return nil
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: Decode value %d = %v, reference %v", p.Name(), i, got[i], want[i])
		}
	}
	return got
}

// FuzzPolylineAgainstReference holds the three kernels to the reference
// over (precision, raw float bits): AppendEncode emits the reference's
// bytes; Decode agrees with the reference on the valid payload, on a copy
// with one byte replaced and on a truncated copy; Transmit returns the
// payload's length and the decoded floats.
func FuzzPolylineAgainstReference(f *testing.F) {
	for prec := 0; prec <= 8; prec++ {
		raw := Raw{}.Encode(edgeWeights(math.Pow(10, float64(prec)))) // the float bits, little-endian
		f.Add(uint8(prec), raw, uint16(prec), byte(0x7F))
		f.Add(uint8(prec), raw, uint16(3*prec+1), byte(62))
	}
	f.Add(uint8(4), Raw{}.Encode(randWeights(rng.New(1), 64, 0.2)), uint16(9), byte('~'+1))
	f.Fuzz(func(t *testing.T, prec uint8, raw []byte, at uint16, with byte) {
		p := NewPolyline(int(prec % 9))
		w := make([]float64, len(raw)/8)
		if err := (Raw{}).Decode(raw[:8*len(w)], w); err != nil {
			t.Fatal(err)
		}

		want := refAppendEncode(p, nil, w)
		if got := p.AppendEncode(nil, w); !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendEncode %q, reference %q", p.Name(), got, want)
		}
		decoded := decodeBoth(t, p, want, len(w))
		if decoded == nil {
			t.Fatalf("%s: the reference payload %q does not decode", p.Name(), want)
		}

		sent := make([]float64, len(w))
		if n := p.Transmit(sent, w); n != len(want) {
			t.Fatalf("%s: Transmit charges %d bytes, payload has %d", p.Name(), n, len(want))
		}
		for i := range sent {
			if math.Float64bits(sent[i]) != math.Float64bits(decoded[i]) {
				t.Fatalf("%s: Transmit value %d = %v, Decode gives %v", p.Name(), i, sent[i], decoded[i])
			}
		}

		if len(want) == 0 {
			return
		}
		cut := int(at) % len(want)
		bad := bytes.Clone(want)
		bad[cut] = with
		decodeBoth(t, p, bad, len(w))
		decodeBoth(t, p, want[:cut], len(w))
		decodeBoth(t, p, want, len(w)+1)
	})
}

// FuzzTransmitFixed holds the fixed-point channel to Transmit over
// (precision 3..6, raw float bits): ok is false exactly when some
// reference-quantized value falls outside int32, and when it is true the
// payload size and Reconstruct's floats are Transmit's bit for bit. Up to
// n/4 values outside int16 are listed, exactly those indices in ascending
// order with their values; past that the vector is held dense. Either form
// stays inside what an int32 slot of n values would allocate. The
// destination Fixed first holds a different vector of the same length,
// most of it outside int16, so nothing carries over from one transmit to
// the next. Every seed vector is also added negated: the integer ranges
// are one wider below zero than above, and zigzag gives the signs
// different lengths.
func FuzzTransmitFixed(f *testing.F) {
	add := func(prec int, w ...float64) { // the target runs at precision 3 + arg%4
		f.Add(uint8(prec-3), Raw{}.Encode(w))
		for i := range w {
			w[i] = -w[i]
		}
		f.Add(uint8(prec-3), Raw{}.Encode(w))
	}
	for prec := 3; prec <= 6; prec++ {
		s := math.Pow(10, float64(prec))
		add(prec, math.NaN(), math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1030, 0.3, -0.7)
		for _, v := range []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64} {
			add(prec, 0.1, v)
		}
		// Both sides of the int32 edge: ±2³¹·10⁻ᵖ, the ties half a unit
		// inside, and their neighbours.
		for _, x := range []float64{1 << 31, 1<<31 - 0.5, 1<<31 - 1, 1<<31 + 0.5} {
			for _, v := range []float64{x / s, -x / s, math.Nextafter(x/s, 0), math.Nextafter(-x/s, 0)} {
				add(prec, -0.2, v, 0.4)
			}
		}
		// Both sides of the int16 edge: ±32767.5·10⁻ᵖ, the integers on
		// either side of it, and the neighbours of each.
		for _, x := range []float64{32767.5, 32767, 32768, 32768.5} {
			for _, v := range []float64{x / s, -x / s, math.Nextafter(x/s, 0), math.Nextafter(x/s, math.Inf(1))} {
				add(prec, 0.2, -0.4, v, 0.1, -0.3)
			}
		}
		// Both sides of the n/4 cap at n = 8, 9 and 1: the list at the cap,
		// then one value past it.
		wide := 40000 / s
		add(prec, wide, 0.1, 0.2, -wide, 0.3, 0.1, -0.1, 0)
		add(prec, wide, 0.1, 0.2, -wide, 0.3, wide, -0.1, 0)
		add(prec, 0.1, wide, 0.2, 0.3, -wide, 0.1, -0.1, 0, 0.5)
		add(prec, 0.1, wide, 0.2, 0.3, -wide, 0.1, -0.1, 0, wide)
		add(prec, wide)
		// A dense vector across int32's range, and a listed one with a
		// value past it after its first overflow.
		add(prec, 1e6/s, -3e8/s, 7e4/s, -5e4/s, 0.2, 1e9/s, 0.1)
		add(prec, 0.1, 0.2, wide, 0.3, 0.4, (1<<31)/s, 0.5, 0.6)
	}
	f.Fuzz(func(t *testing.T, prec uint8, raw []byte) {
		p := NewPolyline(3 + int(prec%4))
		w := make([]float64, len(raw)/8)
		if err := (Raw{}).Decode(raw[:8*len(w)], w); err != nil {
			t.Fatal(err)
		}
		fits := true
		var wideIdx []int32
		for i, v := range w {
			q := refQuantize(v, p.scale())
			if q != int64(int32(q)) {
				fits = false
			}
			if q != int64(int16(q)) {
				wideIdx = append(wideIdx, int32(i))
			}
		}
		var q Fixed
		dirty := make([]float64, len(w))
		for i := range dirty {
			dirty[i] = float64(40000*(i%3-1)) / p.scale()
		}
		if _, ok := p.TransmitFixed(&q, dirty); !ok {
			t.Fatalf("%s: TransmitFixed rejects a vector inside int32", p.Name())
		}
		n, ok := p.TransmitFixed(&q, w)
		if ok != fits {
			t.Fatalf("%s: TransmitFixed ok = %v, every value fits int32 = %v", p.Name(), ok, fits)
		}
		if !ok {
			return
		}
		want := make([]float64, len(w))
		if wn := p.Transmit(want, w); n != wn {
			t.Fatalf("%s: TransmitFixed charges %d bytes, Transmit %d", p.Name(), n, wn)
		}
		got := make([]float64, len(w))
		for i := range got {
			got[i] = math.NaN()
		}
		p.Reconstruct(got, &q)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: Reconstruct value %d = %v, Transmit gives %v", p.Name(), i, got[i], want[i])
			}
		}

		if q.Len() != len(w) {
			t.Fatalf("%s: Fixed holds %d values, want %d", p.Name(), q.Len(), len(w))
		}
		// An int32 slot's allocation: the allocator rounds 4n bytes up alike.
		if limit := cap(slices.Grow([]int16(nil), 2*len(w))); cap(q.q) > limit {
			t.Fatalf("%s: Fixed holds %d int16s for %d values, past an int32 slot's %d", p.Name(), cap(q.q), len(w), limit)
		}
		if dense := 4*len(wideIdx) > len(w); q.dense != dense {
			t.Fatalf("%s: %d of %d values outside int16, held dense = %v", p.Name(), len(wideIdx), len(w), q.dense)
		}
		if q.dense {
			return
		}
		var listed []int32
		for k := len(w); k < len(q.q); k += 4 {
			i := get32(q.q[k:])
			listed = append(listed, i)
			if x := refQuantize(w[i], p.scale()); int64(get32(q.q[k+2:])) != x {
				t.Fatalf("%s: overflow entry %d holds %d, the value quantizes to %d", p.Name(), i, get32(q.q[k+2:]), x)
			}
		}
		if !slices.Equal(listed, wideIdx) {
			t.Fatalf("%s: overflow list holds indices %v, the values outside int16 are at %v", p.Name(), listed, wideIdx)
		}
	})
}

// TestQuantizeMatchesReference: the biased truncation equals math.Round
// behind the clamp on every magnitude the clamp lets through, on the ties
// and their neighbours, and on everything the clamp catches.
func TestQuantizeMatchesReference(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := quantize(x), refQuantize(x, 1); got != want {
			t.Fatalf("quantize(%v) = %d, reference %d", x, got, want)
		}
	}
	for _, x := range edgeWeights(1) {
		check(x)
	}
	r := rng.New(17)
	for e := -60; e <= 64; e++ {
		for i := 0; i < 2000; i++ {
			x := math.Ldexp(r.Float64()*2-1, e)
			check(x)
			// The nearest tie and the floats on either side of it.
			tie := math.Trunc(x) + math.Copysign(0.5, x)
			check(tie)
			check(math.Nextafter(tie, 0))
			check(math.Nextafter(tie, math.Inf(1)))
			check(math.Nextafter(tie, math.Inf(-1)))
		}
	}
}

// benchSizes are the benchmarked vector lengths: the historical 10k and the
// 56,842 parameters of the wide MLP the codec-bound workloads transmit.
var benchSizes = []int{10000, 56842}

// polyBench is one benchmark case: a weight vector, its payload, and
// destinations of both kinds grown to size.
type polyBench struct {
	p   *Polyline
	w   []float64
	enc []byte
	dst []byte
	out []float64
}

// benchPolyline runs op at every size; MB/s is float64 bytes through the
// kernel, the same base for all of them.
func benchPolyline(b *testing.B, op func(c *polyBench) error) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			c := &polyBench{p: NewPolyline(4), w: randWeights(rng.New(1), n, 0.2), out: make([]float64, n)}
			c.enc = c.p.Encode(c.w)
			c.dst = make([]byte, 0, 2*len(c.enc))
			b.ReportAllocs()
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchSink int

func BenchmarkPolylineEncode(b *testing.B) {
	benchPolyline(b, func(c *polyBench) error {
		benchSink += len(c.p.AppendEncode(c.dst, c.w))
		return nil
	})
}

func BenchmarkPolylineDecode(b *testing.B) {
	benchPolyline(b, func(c *polyBench) error { return c.p.Decode(c.enc, c.out) })
}

func BenchmarkPolylineTransmit(b *testing.B) {
	benchPolyline(b, func(c *polyBench) error {
		benchSink += c.p.Transmit(c.out, c.w)
		return nil
	})
}

// BenchmarkPolylineTransmitFixed is the simulator's polyline uplink: the
// quantizing pass into 16-bit fixed point with its overflow list, then the
// rescale the server does when it reads the update.
func BenchmarkPolylineTransmitFixed(b *testing.B) {
	var q Fixed
	benchPolyline(b, func(c *polyBench) error {
		n, ok := c.p.TransmitFixed(&q, c.w)
		if !ok {
			return fmt.Errorf("weights overflow int32")
		}
		c.p.Reconstruct(c.out, &q)
		benchSink += n
		return nil
	})
}

// The reference bodies under the same harness: the denominators of the
// kernels' speed-ups (encode, decode, and encode+decode for Transmit).

func BenchmarkPolylineEncodeReference(b *testing.B) {
	benchPolyline(b, func(c *polyBench) error {
		benchSink += len(refAppendEncode(c.p, c.dst, c.w))
		return nil
	})
}

func BenchmarkPolylineDecodeReference(b *testing.B) {
	benchPolyline(b, func(c *polyBench) error { return refDecode(c.p, c.enc, c.out) })
}

func BenchmarkPolylineTransmitReference(b *testing.B) {
	benchPolyline(b, func(c *polyBench) error {
		return refDecode(c.p, refAppendEncode(c.p, c.dst, c.w), c.out)
	})
}
