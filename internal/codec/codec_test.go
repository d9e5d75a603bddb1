package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randWeights(r *rng.RNG, n int, scale float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = scale * r.Norm()
	}
	return w
}

func roundTrip(t *testing.T, c Codec, w []float64) []float64 {
	t.Helper()
	enc := c.Encode(w)
	out := make([]float64, len(w))
	if err := c.Decode(enc, out); err != nil {
		t.Fatalf("%s decode failed: %v", c.Name(), err)
	}
	return out
}

func TestPolylineRoundTripErrorBound(t *testing.T) {
	r := rng.New(1)
	for _, p := range []int{3, 4, 5, 6} {
		c := NewPolyline(p)
		w := randWeights(r, 500, 0.3)
		out := roundTrip(t, c, w)
		bound := c.MaxError() + 1e-12
		for i := range w {
			if math.Abs(w[i]-out[i]) > bound {
				t.Fatalf("%s error %v exceeds bound %v", c.Name(), math.Abs(w[i]-out[i]), bound)
			}
		}
	}
}

func TestPolylineRoundTripProperty(t *testing.T) {
	c := NewPolyline(4)
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				vals[i] = 0.5
			}
		}
		out := make([]float64, len(vals))
		if err := c.Decode(c.Encode(vals), out); err != nil {
			return false
		}
		for i := range vals {
			if math.Abs(vals[i]-out[i]) > c.MaxError()+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZigZagInvolution(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZigZagSmallMagnitudesStaySmall(t *testing.T) {
	for v := int64(-16); v <= 16; v++ {
		if zigzag(v) > 33 {
			t.Fatalf("zigzag(%d) = %d", v, zigzag(v))
		}
	}
}

func TestVarintASCIIRange(t *testing.T) {
	// The polyline wire format must stay printable ASCII (63..126).
	c := NewPolyline(5)
	enc := c.Encode(randWeights(rng.New(2), 300, 1))
	for _, b := range enc {
		if b < 63 || b > 126 {
			t.Fatalf("non-polyline byte %d in payload", b)
		}
	}
}

func TestPolylineHandlesNonFinite(t *testing.T) {
	c := NewPolyline(4)
	w := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 0.5}
	out := make([]float64, len(w))
	if err := c.Decode(c.Encode(w), out); err != nil {
		t.Fatalf("decode failed on clamped payload: %v", err)
	}
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite survived the codec: %v", out)
		}
	}
	if math.Abs(out[5]-0.5) > c.MaxError() {
		t.Fatal("finite value corrupted by clamping neighbours")
	}
}

func TestPolylineCompressionRatio(t *testing.T) {
	// Realistic weights (|w| mostly < 1) at precision 4 should beat 2×
	// vs float64, in the regime the paper reports (up to 3.5×).
	r := rng.New(3)
	w := randWeights(r, 5000, 0.15)
	// Uncompressed float64 bytes over encoded bytes, the metric the paper
	// quotes.
	ratioOf := func(c Codec) float64 { return float64(8*len(w)) / float64(len(c.Encode(w))) }
	ratio := ratioOf(NewPolyline(4))
	if ratio < 2 {
		t.Fatalf("polyline4 ratio %v, want >= 2", ratio)
	}
	ratio3 := ratioOf(NewPolyline(3))
	if ratio3 <= ratio {
		t.Fatalf("precision 3 (%v) should compress better than 4 (%v)", ratio3, ratio)
	}
}

func TestRawLossless(t *testing.T) {
	r := rng.New(4)
	w := randWeights(r, 100, 3)
	out := roundTrip(t, Raw{}, w)
	for i := range w {
		if w[i] != out[i] {
			t.Fatal("raw codec is not lossless")
		}
	}
}

// quant8RoundTrip is linear 8-bit quantization against the vector's own
// min/max, encoded and decoded: the quantization-style scheme §4.3 argues
// degrades under non-IID weight divergence, because its error scales with
// the weight RANGE, so a few diverged coordinates blow up the error of every
// coordinate — unlike polyline, whose error is a fixed decimal precision.
func quant8RoundTrip(w []float64) []float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range w {
		lo, hi = min(lo, v), max(hi, v)
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	out := make([]float64, len(w))
	for i, v := range w {
		code := math.Round((v - lo) / span * 255)
		out[i] = lo + code/255*span
	}
	return out
}

func TestQuant8RangeSensitivity(t *testing.T) {
	// The §4.3 argument: one diverged coordinate destroys everyone's
	// precision under range quantization but not under polyline.
	w := make([]float64, 100)
	for i := range w {
		w[i] = 0.01 * float64(i%10)
	}
	w[0] = 1000 // diverged weight
	q := quant8RoundTrip(w)
	p := roundTrip(t, NewPolyline(4), w)
	quantErr, polyErr := 0.0, 0.0
	for i := 1; i < len(w); i++ {
		quantErr += math.Abs(w[i] - q[i])
		polyErr += math.Abs(w[i] - p[i])
	}
	if quantErr < 10*polyErr {
		t.Fatalf("expected quant8 (%v) to degrade much worse than polyline (%v)", quantErr, polyErr)
	}
}

func TestDecodeCorruptPayloads(t *testing.T) {
	c := NewPolyline(4)
	out := make([]float64, 3)
	if err := c.Decode([]byte{1, 2, 3}, out); err == nil {
		t.Fatal("low bytes accepted")
	}
	enc := c.Encode([]float64{1, 2, 3})
	if err := c.Decode(enc[:len(enc)-1], out); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if err := c.Decode(append(enc, 'a'), out); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Hostile bytes the encoder never emits: anything above the alphabet
	// (0x7F used to decode as a terminator chunk of 0), in the decoder's
	// four-byte window and in its byte-at-a-time tail alike, and a 13th
	// chunk whose bits would land above bit 63.
	for _, b := range []byte{62, 127, 128, 255} {
		for _, at := range []int{0, len(enc) - 1} {
			bad := append([]byte{}, enc...)
			bad[at] = b
			if err := c.Decode(bad, out); !errors.Is(err, errCorrupt) {
				t.Fatalf("byte %d at %d of %d: %v, want ErrCorrupt", b, at, len(enc), err)
			}
		}
	}
	long := bytes.Repeat([]byte{'~'}, 13) // twelve full continuation chunks
	for last, ok := range map[byte]bool{63 + 0x0F: true, 63 + 0x10: false, 63 + 0x1F: false, 63 + 0x2F: false} {
		long[12] = last
		if err := c.Decode(long, out[:1]); (err == nil) != ok {
			t.Fatalf("13-chunk varint ending in %d: %v, want accepted=%v", last, err, ok)
		} else if err != nil && !errors.Is(err, errCorrupt) {
			t.Fatalf("13-chunk varint ending in %d: %v, want ErrCorrupt", last, err)
		}
	}
}

func TestMarshalModelRoundTrip(t *testing.T) {
	shapes := []ShapeInfo{
		{Name: "W", Dims: []int{4, 3}},
		{Name: "b", Dims: []int{4}},
	}
	w := randWeights(rng.New(5), 16, 0.5)
	for _, c := range []Channel{Raw{}, NewPolyline(4), NewPolyline(5)} {
		msg, err := MarshalModel(c, shapes, w)
		if err != nil {
			t.Fatalf("%s marshal: %v", c.Name(), err)
		}
		gotShapes, gotW, err := UnmarshalModel(msg)
		if err != nil {
			t.Fatalf("%s unmarshal: %v", c.Name(), err)
		}
		if len(gotShapes) != 2 || gotShapes[0].Name != "W" || gotShapes[1].Dims[0] != 4 {
			t.Fatalf("%s shapes corrupted: %+v", c.Name(), gotShapes)
		}
		if len(gotW) != 16 {
			t.Fatalf("%s weight count %d", c.Name(), len(gotW))
		}
		for i := range w {
			if math.Abs(w[i]-gotW[i]) > c.MaxError()+1e-9 {
				t.Fatalf("%s weight %d error %v", c.Name(), i, math.Abs(w[i]-gotW[i]))
			}
		}
	}
}

func TestMarshalModelShapeMismatch(t *testing.T) {
	_, err := MarshalModel(Raw{}, []ShapeInfo{{Name: "W", Dims: []int{2, 2}}}, make([]float64, 3))
	if err == nil {
		t.Fatal("shape/weight mismatch accepted")
	}
}

func TestUnmarshalModelCorrupt(t *testing.T) {
	msg, err := MarshalModel(NewPolyline(4), []ShapeInfo{{Name: "W", Dims: []int{2}}}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 3, 6, len(msg) - 1} {
		if cut >= len(msg) {
			continue
		}
		if _, _, err := UnmarshalModel(msg[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte{}, msg...)
	bad[0] = 99
	if _, _, err := UnmarshalModel(bad); err == nil {
		t.Fatal("unknown codec id accepted")
	}
}
