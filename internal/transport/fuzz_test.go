package transport

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// Fuzz targets for the decoders that read bytes a peer sent: the frame
// reader and the three payload parsers. They assert no panic, that a read
// borrows at most limit − 1 bytes from the frame list and returns what it
// borrowed when it fails, and that whatever a decoder accepts encodes back
// to the bytes it was read from.

// payloadDecoders is the table FuzzParsePayloads draws from: each entry
// parses a payload and, when the parser accepts it, encodes the result again
// with the matching encoder.
var payloadDecoders = []struct {
	name      string
	typ       byte
	remarshal func(p []byte) ([]byte, error)
}{
	{"register", msgRegister, func(p []byte) ([]byte, error) {
		r, err := parseRegister(p)
		if err != nil {
			return nil, err
		}
		return r.Marshal(), nil
	}},
	{"model push", MsgModelPush, func(p []byte) ([]byte, error) {
		spec, model, err := parseModelPush(p)
		if err != nil {
			return nil, err
		}
		return ModelPush(spec, model), nil
	}},
	{"model update", MsgModelUpdate, func(p []byte) ([]byte, error) {
		id, n, round, model, err := ParseModelUpdate(p)
		if err != nil {
			return nil, err
		}
		return ModelUpdate(id, n, round, model), nil
	}},
}

// seedShapes is the model the seed frames carry, the one the in-place frame
// test pushes.
var seedShapes = []codec.ShapeInfo{{Name: "W", Dims: []int{5}}}

// seedFrames returns frames the loopback tests put on the wire — a
// registration, a polyline model push with an attack directive and an LR
// scale, the update answering it, a shutdown — each whole, cut inside the
// header, cut inside the payload, and with its length one short, one long,
// zero and 2³²−1.
func seedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	model, err := codec.MarshalModel(codec.NewPolyline(4), seedShapes, []float64{0.1, -0.2, 0.3, -0.4, 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, msg := range []struct {
		typ     byte
		payload []byte
	}{
		{msgRegister, register{ClientID: 7, NumSamples: 123, LatencyHintMs: 4500}.Marshal()},
		{MsgModelPush, ModelPush(PushSpec{Round: 9, Epochs: 2, Batch: 8, Lambda: 0.4, Attack: 1, AttackScale: -4, LRScale: 0.5}, model)},
		{MsgModelUpdate, ModelUpdate(3, 50, 9, model)},
		{msgShutdown, nil},
	} {
		var b bytes.Buffer
		if err := WriteFrame(&b, msg.typ, msg.payload); err != nil {
			tb.Fatal(err)
		}
		frame := b.Bytes()
		out = append(out, frame, frame[:3], frame[:len(frame)-1])
		n := binary.LittleEndian.Uint32(frame)
		for _, bad := range []uint32{n - 1, n + 1, 0, 1<<32 - 1} {
			corrupt := slices.Clone(frame)
			binary.LittleEndian.PutUint32(corrupt, bad)
			out = append(out, corrupt)
		}
	}
	return out
}

// isolateFrames swaps in a frame list whose only free buffer is buf and
// returns the function that puts the package's own list back. With one
// buffer of capacity c free, a read that borrows at most c bytes gets
// exactly buf and a read that borrows more gets a fresh one.
func isolateFrames(buf []byte) (restore func()) {
	saved := frames
	frames = new(tensor.FreeList[byte])
	frames.Put(buf)
	return func() { frames = saved }
}

// drainFrames empties the frame list through Get and returns what it held.
func drainFrames() (free [][]byte) {
	for b := frames.Get(0); cap(b) > 0; b = frames.Get(0) {
		free = append(free, b)
	}
	return free
}

// sameBuffer reports whether a and b start at the same byte.
func sameBuffer(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// FuzzReadFrame feeds readFrame arbitrary bytes under a limit folded into
// [1, 65536], with the frame list holding one buffer of exactly limit − 1
// bytes. An accepted frame must sit in that buffer (nothing larger was
// borrowed) and re-frame to the bytes it consumed; a rejected one, or one
// without payload, must leave that buffer in the pool (nothing borrowed
// leaked).
func FuzzReadFrame(f *testing.F) {
	limits := []uint32{uint32(frameLimit(seedShapes)), registerLimit, 1, 64}
	for i, frame := range seedFrames(f) {
		f.Add(frame, limits[i%len(limits)])
	}
	f.Fuzz(func(t *testing.T, data []byte, limitRaw uint32) {
		limit := 1 + int(limitRaw%(1<<16))
		sentinel := make([]byte, max(limit-1, 1))
		restore := isolateFrames(sentinel)
		defer restore()

		var hdr [frameHeaderLen]byte
		r := bytes.NewReader(data)
		typ, payload, err := readFrame(r, &hdr, limit)
		free := drainFrames()
		if err != nil || payload == nil {
			if len(free) != 1 || !sameBuffer(free[0], sentinel) {
				t.Fatalf("limit %d, err %v: the pool holds %d buffers, not the one it lent", limit, err, len(free))
			}
			if err != nil {
				return
			}
		} else {
			defer frames.Put(payload)
			if len(free) != 0 || !sameBuffer(payload, sentinel) {
				t.Fatalf("limit %d: a %d-byte payload was not read into the pool's %d-byte buffer", limit, len(payload), cap(sentinel))
			}
		}
		consumed := data[:len(data)-r.Len()]
		want := binary.LittleEndian.AppendUint32(nil, uint32(1+len(payload)))
		want = append(append(want, typ), payload...)
		if !bytes.Equal(consumed, want) {
			t.Fatalf("limit %d: accepted frame re-frames to %x, read %x", limit, want, consumed)
		}
	})
}

// FuzzParsePayloads runs one entry of payloadDecoders, chosen by which, over
// arbitrary bytes: an accepted payload must encode back to exactly those
// bytes, NaN payloads in the push header's floats included.
func FuzzParsePayloads(f *testing.F) {
	for _, frame := range seedFrames(f) {
		if len(frame) < frameHeaderLen {
			continue
		}
		for i, d := range payloadDecoders {
			if d.typ == frame[4] {
				f.Add(uint8(i), frame[frameHeaderLen:])
				f.Add(uint8(i), frame[frameHeaderLen:len(frame)-1])
				f.Add(uint8(i), append(slices.Clone(frame[frameHeaderLen:]), 0))
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, p []byte) {
		d := payloadDecoders[int(which)%len(payloadDecoders)]
		out, err := d.remarshal(p)
		if err == nil && !bytes.Equal(out, p) {
			t.Fatalf("%s: accepted %x, encodes back to %x", d.name, p, out)
		}
	})
}
