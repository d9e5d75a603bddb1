package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
)

// allCodecs is every wire codec, polyline and top-k at their default and
// widest settings.
func allCodecs() []Codec {
	return []Codec{Raw{}, NewPolyline(4), NewPolyline(12), NewTopK(0.25), NewTopK(1)}
}

// TestAppendEncodeMatchesEncode: appending behind a dirty, non-empty prefix
// (with dirty spare capacity, as a recycled buffer has) yields exactly the
// bytes Encode returns and leaves the prefix alone.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	w := randWeights(rng.New(3), 257, 0.4)
	for _, c := range allCodecs() {
		want := c.Encode(w)
		for _, spare := range []int{0, 7, 4 * len(w) * 8} {
			buf := bytes.Repeat([]byte{0xA5}, 11+spare)
			prefix := buf[:11]
			got := c.AppendEncode(prefix, w)
			if !bytes.Equal(got[:11], bytes.Repeat([]byte{0xA5}, 11)) {
				t.Fatalf("%s: AppendEncode clobbered its prefix", codecName(c))
			}
			if !bytes.Equal(got[11:], want) {
				t.Fatalf("%s: AppendEncode(prefix, w)[len(prefix):] != Encode(w) (spare %d)", codecName(c), spare)
			}
		}
	}
}

// TestUnmarshalModelIntoMatchesUnmarshal: the into form reconstructs the
// same weights, refuses any destination of another size, and allocates
// nothing.
func TestUnmarshalModelIntoMatchesUnmarshal(t *testing.T) {
	shapes := []ShapeInfo{{Name: "W", Dims: []int{8, 4}}, {Name: "b", Dims: []int{8}}, {Name: "s"}}
	w := randWeights(rng.New(7), 41, 0.5)
	for _, c := range allCodecs() {
		msg, err := AppendModel([]byte("dirty prefix"), c, shapes, w)
		if err != nil {
			t.Fatal(err)
		}
		msg = msg[len("dirty prefix"):]
		if plain, _ := MarshalModel(c, shapes, w); !bytes.Equal(msg, plain) {
			t.Fatalf("%s: AppendModel behind a prefix differs from MarshalModel", codecName(c))
		}
		_, want, err := UnmarshalModel(msg)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(w))
		for i := range got {
			got[i] = math.NaN() // pooled destinations come back dirty
		}
		if err := UnmarshalModelInto(msg, got); err != nil {
			t.Fatalf("%s: %v", codecName(c), err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: weight %d = %v, UnmarshalModel gives %v", codecName(c), i, got[i], want[i])
			}
		}
		for _, n := range []int{len(w) - 1, len(w) + 1, 0} {
			if err := UnmarshalModelInto(msg, make([]float64, n)); !errors.Is(err, errCorrupt) {
				t.Fatalf("%s: destination of %d for %d elements: %v, want ErrCorrupt", codecName(c), n, len(w), err)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := UnmarshalModelInto(msg, got); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: UnmarshalModelInto allocates %.0f times", codecName(c), allocs)
		}
	}
}

// TestAppendModelReusesBuffer: once the destination has grown to size, a
// polyline model message is built without allocating.
func TestAppendModelReusesBuffer(t *testing.T) {
	shapes := []ShapeInfo{{Name: "W", Dims: []int{300}}}
	w := randWeights(rng.New(9), 300, 0.3)
	c := NewPolyline(4)
	buf, err := AppendModel(nil, c, shapes, w)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if buf, err = AppendModel(buf[:0], c, shapes, w); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendModel into a grown buffer allocates %.0f times", allocs)
	}
}

// TestMaxModelBytesBoundsEveryCodec: the closed-form frame bound receivers
// enforce must hold for the worst inputs each codec can see — values that
// clamp to the widest polyline varints, at the highest precision.
func TestMaxModelBytesBoundsEveryCodec(t *testing.T) {
	shapes := []ShapeInfo{{Name: "some.layer/W", Dims: []int{16, 4}}, {Name: "b", Dims: []int{3}}}
	worst := make([]float64, 67)
	for i := range worst {
		worst[i] = math.MaxFloat64
	}
	for _, w := range [][]float64{worst, randWeights(rng.New(2), 67, 0.5), make([]float64, 67)} {
		for _, c := range allCodecs() {
			msg, err := MarshalModel(c, shapes, w)
			if err != nil {
				t.Fatal(err)
			}
			if len(msg) > MaxModelBytes(shapes) {
				t.Errorf("%s: message of %d bytes exceeds MaxModelBytes %d", codecName(c), len(msg), MaxModelBytes(shapes))
			}
		}
	}
	if msg, _ := MarshalModel(NewTopK(1), nil, nil); len(msg) > MaxModelBytes(nil) {
		t.Errorf("MaxModelBytes(nil) = %d does not cover an empty top-k message of %d bytes", MaxModelBytes(nil), len(msg))
	}
}

// wireMessage is a well-formed model message naming codec id and precision
// prec over shapes, around an arbitrary payload.
func wireMessage(t testing.TB, id, prec byte, shapes []ShapeInfo, payload []byte) []byte {
	n := 0
	for _, s := range shapes {
		n += s.Size()
	}
	raw, err := MarshalModel(Raw{}, shapes, make([]float64, n))
	if err != nil {
		t.Fatal(err)
	}
	msg := append(raw[:ModelHeaderBytes(shapes):ModelHeaderBytes(shapes)], payload...)
	msg[0], msg[1] = id, prec
	binary.LittleEndian.PutUint32(msg[ModelHeaderBytes(shapes)-4:], uint32(len(payload)))
	return msg
}

// deletedWireIDs are well-formed messages of eight elements naming codec ids
// no codec has, each around the payload its id's decoder once accepted:
// float32 (1) four bytes a value, quant8 (2) a 16-byte range and a code
// byte a value, delta polyline (4) one varint a value; and two ids never
// assigned around a raw payload.
func deletedWireIDs(t testing.TB) [][]byte {
	shapes := []ShapeInfo{{Name: "W", Dims: []int{3, 2}}, {Name: "b", Dims: []int{2}}}
	w := randWeights(rng.New(13), 8, 0.5)
	return [][]byte{
		wireMessage(t, 1, 0, shapes, make([]byte, 4*8)),
		wireMessage(t, 2, 0, shapes, make([]byte, 16+8)),
		wireMessage(t, 4, 4, shapes, NewPolyline(4).Encode(w)),
		wireMessage(t, 6, 0, shapes, Raw{}.Encode(w)),
		wireMessage(t, 255, 0, shapes, Raw{}.Encode(w)),
	}
}

// TestDeletedWireIDsRejected: a message naming a codec id no codec has is
// corrupt, however well-formed its header and payload.
func TestDeletedWireIDsRejected(t *testing.T) {
	for _, msg := range deletedWireIDs(t) {
		if err := UnmarshalModelInto(msg, make([]float64, 8)); !errors.Is(err, errCorrupt) {
			t.Errorf("id %d: UnmarshalModelInto gives %v, want ErrCorrupt", msg[0], err)
		}
		if _, _, err := UnmarshalModel(msg); !errors.Is(err, errCorrupt) {
			t.Errorf("id %d: UnmarshalModel gives %v, want ErrCorrupt", msg[0], err)
		}
	}
}

// FuzzUnmarshalModelInto arbitrary bytes to the wire decoder — the
// first thing a peer's frame reaches. It must never panic or read past the
// message, and it must agree with UnmarshalModel: whenever the allocating
// form accepts a message of exactly len(dst) elements, the into form
// reconstructs the same weights, and it accepts nothing else.
func FuzzUnmarshalModelInto(f *testing.F) {
	shapes := []ShapeInfo{{Name: "W", Dims: []int{3, 2}}, {Name: "b", Dims: []int{2}}}
	w := randWeights(rng.New(11), 8, 0.5)
	for _, c := range allCodecs() {
		msg, err := MarshalModel(c, shapes, w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg, 8)
		f.Add(msg[:len(msg)/2], 8)
	}
	for _, msg := range deletedWireIDs(f) {
		f.Add(msg, 8)
	}
	f.Add([]byte{wireRaw, 0, 1, 0, 0, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, 0)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<12 {
			n = 8
		}
		dst := make([]float64, n)
		intoErr := UnmarshalModelInto(data, dst)

		// UnmarshalModel sizes an allocation from the shape table; only ask
		// it about messages that declare a size this harness can afford.
		_, _, total, _, hdrErr := parseModelHeader(data, nil)
		if hdrErr != nil {
			if intoErr == nil {
				t.Fatalf("into accepted a message whose header is invalid: %v", hdrErr)
			}
			return
		}
		if total > 1<<16 {
			if intoErr == nil {
				t.Fatalf("into accepted %d elements into a destination of %d", total, n)
			}
			return
		}
		_, want, err := UnmarshalModel(data)
		if err != nil || len(want) != n {
			if intoErr == nil {
				t.Fatalf("into accepted what UnmarshalModel rejects (err %v, %d elements for a destination of %d)", err, len(want), n)
			}
			return
		}
		if intoErr != nil {
			t.Fatalf("UnmarshalModel accepts %d elements, into fails: %v", n, intoErr)
		}
		for i := range want {
			if dst[i] != want[i] && !(math.IsNaN(dst[i]) && math.IsNaN(want[i])) {
				t.Fatalf("weight %d: into %v, UnmarshalModel %v", i, dst[i], want[i])
			}
		}
	})
}
