package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ShapeInfo mirrors a layer parameter block (name + dims). The paper's §4.3
// transmits "the dimensions of the weights of each layer" with the
// compressed payload; MarshalModel reproduces that wire format so the
// receiver can unmarshal weights back into layers.
type ShapeInfo struct {
	Name string
	Dims []int
}

// Size is the number of elements in the block.
func (s ShapeInfo) Size() int {
	n := 1
	for _, d := range s.Dims {
		n *= d
	}
	return n
}

// codec wire ids. The gaps are ids of deleted codecs (float32 1, quant8 2,
// delta polyline 4); a message naming one is corrupt.
const (
	wireRaw      = 0
	wirePolyline = 3
	wireTopK     = 5
)

func codecWireID(c Codec) (id byte, precision byte, err error) {
	switch v := c.(type) {
	case Raw, *Raw:
		return wireRaw, 0, nil
	case *Polyline:
		if v.Precision < 0 || v.Precision > 12 {
			return 0, 0, fmt.Errorf("codec: polyline precision %d out of range", v.Precision)
		}
		return wirePolyline, byte(v.Precision), nil
	case *TopK:
		// The precision byte carries the kept fraction in percent, so the
		// wire supports 1%..100% in whole-percent steps — the edge→cloud
		// uplink's -uplink-topk granularity.
		pct := int(v.Frac*100 + 0.5)
		if pct < 1 || pct > 100 {
			return 0, 0, fmt.Errorf("codec: top-k fraction %g not representable in whole percents", v.Frac)
		}
		return wireTopK, byte(pct), nil
	default:
		return 0, 0, fmt.Errorf("codec: unknown codec %T", c)
	}
}

// decodeWire decodes a payload with the codec a model header names. The
// codec values live on the stack: a decoded frame allocates nothing.
func decodeWire(id, precision byte, payload []byte, out []float64) error {
	switch id {
	case wireRaw:
		return Raw{}.Decode(payload, out)
	case wirePolyline:
		p := Polyline{Precision: int(precision)}
		return p.Decode(payload, out)
	case wireTopK:
		if precision < 1 || precision > 100 {
			return fmt.Errorf("%w: top-k percent %d", errCorrupt, precision)
		}
		t := TopK{Frac: float64(precision) / 100}
		return t.Decode(payload, out)
	default:
		return fmt.Errorf("%w: codec id %d", errCorrupt, id)
	}
}

// IsTopKMessage reports whether a marshalled model message was encoded
// with the top-k codec — the receiver of an edge→cloud uplink uses it to
// tell a sparsified DELTA (to be added onto the shared reference) from an
// absolute model.
func IsTopKMessage(data []byte) bool {
	return len(data) > 0 && data[0] == wireTopK
}

// ModelHeaderBytes is the size of a model message minus its payload: codec
// id, precision, shape table, payload length — what byte accounting that
// never materializes the message adds to the codec's payload size.
func ModelHeaderBytes(shapes []ShapeInfo) int {
	n := 2 + 2 + 4
	for _, s := range shapes {
		n += 1 + len(s.Name) + 1 + 4*len(s.Dims)
	}
	return n
}

// MaxModelBytes bounds the model message any codec can produce for the
// given shapes: the header plus 16 bytes per element (a polyline varint of a
// full 64-bit value is 13 characters; raw is 8, top-k 8 per kept
// coordinate) plus 16 bytes, which covers top-k's 4-byte count. The bound is
// a safety limit, not a tight one: receivers that know the shapes use it to
// refuse an oversized frame before buffering any of it.
func MaxModelBytes(shapes []ShapeInfo) int {
	elems := 0
	for _, s := range shapes {
		elems += s.Size()
	}
	return ModelHeaderBytes(shapes) + 16 + 16*elems
}

// AppendModel appends the self-describing model message to dst:
//
//	[codecID u8][precision u8][numShapes u16]
//	  per shape: [nameLen u8][name][numDims u8][dims u32...]
//	[payloadLen u32][payload]
//
// The header is what the paper calls "marshalling": flatten weights, attach
// per-layer dimensions, compress. The payload is encoded in place behind a
// reserved length field that is patched afterwards, so a recycled dst makes
// the whole message allocation-free. On error dst is returned unextended.
func AppendModel(dst []byte, c Codec, shapes []ShapeInfo, w []float64) ([]byte, error) {
	id, prec, err := codecWireID(c)
	if err != nil {
		return dst, err
	}
	total := 0
	for _, s := range shapes {
		if len(s.Name) > 255 || len(s.Dims) > 255 {
			return dst, fmt.Errorf("codec: shape %q too large for wire format", s.Name)
		}
		total += s.Size()
	}
	if total != len(w) {
		return dst, fmt.Errorf("codec: shapes cover %d elements, weights have %d", total, len(w))
	}
	out := append(dst, id, prec)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(shapes)))
	for _, s := range shapes {
		out = append(out, byte(len(s.Name)))
		out = append(out, s.Name...)
		out = append(out, byte(len(s.Dims)))
		for _, d := range s.Dims {
			out = binary.LittleEndian.AppendUint32(out, uint32(d))
		}
	}
	lenAt := len(out)
	out = c.AppendEncode(append(out, 0, 0, 0, 0), w)
	binary.LittleEndian.PutUint32(out[lenAt:], uint32(len(out)-lenAt-4))
	return out, nil
}

// MarshalModel is AppendModel into a fresh slice.
func MarshalModel(c Codec, shapes []ShapeInfo, w []float64) ([]byte, error) {
	return AppendModel(nil, c, shapes, w)
}

// maxElements bounds the element count a shape table may declare; dims are
// attacker-controlled u32s, so the products are checked before they can
// overflow or size an allocation.
const maxElements = math.MaxInt32

// parseModelHeader validates a model message's header and returns the codec
// it names, the element count its shape table declares and the payload. The
// shape table is appended to *shapes when shapes is non-nil and only walked
// otherwise, so the decode-into path allocates nothing.
func parseModelHeader(data []byte, shapes *[]ShapeInfo) (id, prec byte, total int, payload []byte, err error) {
	fail := func(what string) (byte, byte, int, []byte, error) {
		return 0, 0, 0, nil, fmt.Errorf("%w: %s", errCorrupt, what)
	}
	if len(data) < 4 {
		return fail("short header")
	}
	numShapes := int(binary.LittleEndian.Uint16(data[2:]))
	pos := 4
	for i := 0; i < numShapes; i++ {
		if pos >= len(data) {
			return fail("truncated shape table")
		}
		nameLen := int(data[pos])
		pos++
		if pos+nameLen+1 > len(data) {
			return fail("truncated shape name")
		}
		name := data[pos : pos+nameLen]
		pos += nameLen
		numDims := int(data[pos])
		pos++
		if pos+4*numDims > len(data) {
			return fail("truncated dims")
		}
		var dims []int
		if shapes != nil {
			dims = make([]int, numDims)
		}
		size := 1
		for d := 0; d < numDims; d++ {
			dim := int(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			if dim != 0 && size > maxElements/dim {
				return fail("shape table declares too many elements")
			}
			size *= dim
			if dims != nil {
				dims[d] = dim
			}
		}
		if total += size; total > maxElements {
			return fail("shape table declares too many elements")
		}
		if shapes != nil {
			*shapes = append(*shapes, ShapeInfo{Name: string(name), Dims: dims})
		}
	}
	if pos+4 > len(data) {
		return fail("missing payload length")
	}
	payloadLen := int(binary.LittleEndian.Uint32(data[pos:]))
	pos += 4
	if pos+payloadLen != len(data) {
		return fail(fmt.Sprintf("payload length %d does not match remaining %d", payloadLen, len(data)-pos))
	}
	return data[0], data[1], total, data[pos:], nil
}

// UnmarshalModelInto parses a model message and reconstructs its weights
// into dst, allocating nothing. A message whose shape table declares any
// other element count than len(dst) is corrupt: the receiver knows the
// model it is training.
func UnmarshalModelInto(msg []byte, dst []float64) error {
	id, prec, total, payload, err := parseModelHeader(msg, nil)
	if err != nil {
		return err
	}
	if total != len(dst) {
		return fmt.Errorf("%w: message carries %d elements, want %d", errCorrupt, total, len(dst))
	}
	return decodeWire(id, prec, payload, dst)
}

// UnmarshalModel parses a model message, returning the shape list and the
// reconstructed flat weight vector — UnmarshalModelInto for callers that do
// not know the model's size in advance.
func UnmarshalModel(data []byte) ([]ShapeInfo, []float64, error) {
	var shapes []ShapeInfo
	id, prec, total, payload, err := parseModelHeader(data, &shapes)
	if err != nil {
		return nil, nil, err
	}
	w := make([]float64, total)
	if err := decodeWire(id, prec, payload, w); err != nil {
		return nil, nil, err
	}
	return shapes, w, nil
}
