package edge_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/edge"
)

// fuzzRef is the shared reference the uplink fuzzer decodes against.
func fuzzRef(n int) []float64 {
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = 1 + 0.25*float64(i)
	}
	return ref
}

// FuzzDecodeUplinkInto feeds arbitrary bytes to the cloud's uplink decoder,
// the first thing an edge's push reaches on the root. It must never panic
// or write outside dst; a rejected message must leave the shared reference
// exactly as it was; an accepted one must leave the reference equal to the
// reconstruction. Seeded from AppendUplink output for the raw and top-k
// uplinks over the shapes the edge tests use, whole, truncated and with a
// corrupted payload length.
func FuzzDecodeUplinkInto(f *testing.F) {
	for _, shapes := range [][]codec.ShapeInfo{
		{{Name: "w", Dims: []int{5}}},
		{{Name: "W", Dims: []int{3, 2}}, {Name: "b", Dims: []int{2}}},
	} {
		n := 0
		for _, s := range shapes {
			n += s.Size()
		}
		w := fuzzRef(n)
		for i := range w {
			w[i] = math.Sin(float64(i)) * 3
		}
		for _, cdc := range []codec.Codec{codec.Raw{}, codec.NewTopK(0.4)} {
			msg, _, err := edge.AppendUplink(nil, cdc, shapes, fuzzRef(n), w, nil)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(msg, n)
			f.Add(msg[:len(msg)/2], n)
			f.Add(msg, n+1)
			lenAt := codec.ModelHeaderBytes(shapes) - 4
			for _, bad := range []uint32{binary.LittleEndian.Uint32(msg[lenAt:]) + 1, math.MaxUint32} {
				corrupt := bytes.Clone(msg)
				binary.LittleEndian.PutUint32(corrupt[lenAt:], bad)
				f.Add(corrupt, n)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<12 {
			n = 5
		}
		ref := fuzzRef(n)
		const guard = 0x5EED
		buf := make([]float64, n+2)
		buf[0], buf[n+1] = guard, guard
		dst := buf[1 : n+1]
		err := edge.DecodeUplinkInto(data, ref, dst)
		if buf[0] != guard || buf[n+1] != guard {
			t.Fatalf("decode wrote outside its %d-weight destination", n)
		}
		want := fuzzRef(n)
		if err == nil {
			want = dst
		}
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(want[i]) {
				if err != nil {
					t.Fatalf("rejected message (%v) moved reference coordinate %d", err, i)
				}
				t.Fatalf("accepted message left reference coordinate %d off the reconstruction", i)
			}
		}
	})
}
