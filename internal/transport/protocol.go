// Package transport is the live execution fabric: a TCP message protocol,
// a server that drives the internal/fl method engine over real
// connections, and the client loop that trains on push. The server itself
// contains no training loop — it implements fl.Fabric (dispatch cohorts,
// observe arrivals, wall-clock timeline) and hands the loop to the same
// pluggable policy engine the simulator runs, so any registry method or
// -compose variant deploys here unchanged and simulation results describe
// the deployed system.
//
// Wire format: every message is a length-prefixed frame
//
//	[len u32][type u8][payload]
//
// with payloads encoded little-endian. Model payloads use the codec
// package's self-describing marshal format, so the compression codec is
// negotiated implicitly per message (§4.3's marshalling).
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// Message types.
const (
	// msgRegister (client→server): clientID u32, numSamples u32,
	// latencyHintMs u32.
	msgRegister byte = iota + 1
	// MsgModelPush (server→client): a PushSpec header (round, epochs,
	// batch, lambda, attack directive, DP stage, LR scale) followed by the
	// model message. The local-training settings ride with the push because
	// the engine's method composition decides them per round (FedProx's
	// variable epochs, a method's proximal λ, the staleness-adaptive LR) —
	// clients execute whatever local step the server's policy ships.
	MsgModelPush
	// MsgModelUpdate (client→server): clientID u32, numSamples u32,
	// round u64, model message.
	MsgModelUpdate
	// msgShutdown (server→client): empty payload; the client exits.
	msgShutdown
)

// maxFrame bounds a frame on a connection whose model is not known; an
// established connection is held to frameLimit of its declared shapes.
const maxFrame = 64 << 20

// frameHeaderLen is the [len u32][type u8] prefix; the length counts the
// type byte and the payload.
const frameHeaderLen = 5

// frames is the free list behind the allocation-free wire path: every frame
// this package builds or reads lives in a buffer borrowed from it for as
// long as the round needs the bytes and not a moment longer — a connection
// that is idle (a client training, a server waiting for a header) holds
// none. Frames differ by codec and direction, so Get takes the length it
// needs and the list converges on buffers that fit the largest frame in
// use (DESIGN.md §2a). How many frames are in use at once follows the
// wall clock's arrival timing, so each time the list runs dry it also
// allocates two spares: a new peak late in a run then finds them instead
// of allocating (over loopback, eight clients in 2-member tier cohorts
// peak at 2–4 frames in use). Clients, servers, roots and uplinks in one process
// (tests, the in-process benchmark deployment) share it.
var frames = &tensor.FreeList[byte]{Spare: 2}

// newFrame borrows an empty buffer to build a frame in by append. It asks
// the list for one byte rather than none, so on an empty list it allocates a
// buffer of the largest size in use (and the list's spare) instead of
// leaving append to grow one from nothing.
func newFrame() []byte { return frames.Get(1)[:0] }

// registerLimit is the only frame length a not yet registered peer may
// announce.
const registerLimit = 1 + registerLen

// frameLimit is the largest frame length a peer exchanging models of the
// given shapes can legitimately announce: the type byte, the larger of the
// push and update headers, and the biggest model message any codec
// produces for them. Reads check it before borrowing a buffer, so what a
// peer can make us hold is bounded by the model, not by maxFrame.
func frameLimit(shapes []codec.ShapeInfo) int {
	return 1 + pushHeaderLen + codec.MaxModelBytes(shapes)
}

// beginFrame starts a frame in dst: the header with its length left blank
// for writeFrame to patch once the payload has been appended behind it.
func beginFrame(dst []byte, typ byte) []byte { return append(dst, 0, 0, 0, 0, typ) }

// writeFrame patches the length of a frame built behind beginFrame and
// sends it with a single Write.
func writeFrame(w io.Writer, frame []byte) error {
	n := len(frame) - 4
	if n > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// WriteFrame sends one message whose payload was built elsewhere.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	frame := append(beginFrame(frames.Get(frameHeaderLen + len(payload))[:0], typ), payload...)
	defer frames.Put(frame)
	return writeFrame(w, frame)
}

// readFrame receives one message. The payload lands in a buffer borrowed
// from the frame list only once the header has announced its length — a
// connection blocked waiting for its next frame holds no buffer — and the
// caller owns it until frames.Put(payload). limit is the largest length
// the peer may announce, checked before anything is borrowed. hdr is the
// connection's header scratch (a local array would escape through the
// io.Reader on every call).
func readFrame(r io.Reader, hdr *[frameHeaderLen]byte, limit int) (byte, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	// Compare before converting: where int is 32 bits a length past
	// MaxInt32 would turn negative and slip under the limit.
	u := binary.LittleEndian.Uint32(hdr[:4])
	if u == 0 || uint64(u) > uint64(limit) {
		return 0, nil, fmt.Errorf("transport: invalid frame length %d (limit %d)", u, limit)
	}
	n := int(u)
	if n == 1 {
		return hdr[4], nil, nil
	}
	payload := frames.Get(n - 1)
	if _, err := io.ReadFull(r, payload); err != nil {
		frames.Put(payload)
		return 0, nil, fmt.Errorf("transport: read payload: %w", err)
	}
	return hdr[4], payload, nil
}

// ReadFrame receives one message into a buffer the caller keeps.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	return readFrame(r, &hdr, maxFrame)
}

// register is the client hello.
type register struct {
	clientID      uint32
	numSamples    uint32
	latencyHintMs uint32
}

// registerLen is the fixed register payload.
const registerLen = 12

// marshal encodes the register payload.
func (m register) marshal() []byte {
	out := make([]byte, registerLen)
	binary.LittleEndian.PutUint32(out[0:], m.clientID)
	binary.LittleEndian.PutUint32(out[4:], m.numSamples)
	binary.LittleEndian.PutUint32(out[8:], m.latencyHintMs)
	return out
}

// parseRegister decodes a register payload.
func parseRegister(p []byte) (register, error) {
	if len(p) != registerLen {
		return register{}, fmt.Errorf("transport: register payload %d bytes, want %d", len(p), registerLen)
	}
	return register{
		clientID:      binary.LittleEndian.Uint32(p[0:]),
		numSamples:    binary.LittleEndian.Uint32(p[4:]),
		latencyHintMs: binary.LittleEndian.Uint32(p[8:]),
	}, nil
}

// PushSpec is the per-round local-training instruction carried by a model
// push: which fixed mini-batch schedule to use (Round) and how to train
// (Epochs, Batch, Lambda, and the DP stage — mirroring fl.LocalConfig),
// plus an optional attack directive (attack, attackScale) for simulated-
// adversary deployments: the server marks the deterministic attacker
// subset of the cohort and ships them a directive header; honest members
// get attack 0. The push is a client's only source of these orders.
type PushSpec struct {
	Round  uint64
	Epochs int
	Batch  int
	Lambda float64
	// attack is the wire value of a robust.Kind (0 = honest).
	attack      uint8
	attackScale float64
	dpClip      float64
	dpNoise     float64
	// lrScale is the staleness-adaptive learning-rate factor (0 = stage
	// off), mirroring fl.LocalConfig.LRScale so live rounds train with
	// exactly the scale the engine computed.
	lrScale float64
}

// pushHeaderLen is the fixed ModelPush header: round u64, epochs u32,
// batch u32, lambda f64, attack u8, attackScale f64, dpClip f64,
// dpNoise f64, lrScale f64.
const pushHeaderLen = 8 + 4 + 4 + 8 + 1 + 8 + 8 + 8 + 8

// putPushHeader writes spec into out[:pushHeaderLen].
func putPushHeader(out []byte, spec PushSpec) {
	binary.LittleEndian.PutUint64(out[0:], spec.Round)
	binary.LittleEndian.PutUint32(out[8:], uint32(spec.Epochs))
	binary.LittleEndian.PutUint32(out[12:], uint32(spec.Batch))
	binary.LittleEndian.PutUint64(out[16:], math.Float64bits(spec.Lambda))
	out[24] = spec.attack
	binary.LittleEndian.PutUint64(out[25:], math.Float64bits(spec.attackScale))
	binary.LittleEndian.PutUint64(out[33:], math.Float64bits(spec.dpClip))
	binary.LittleEndian.PutUint64(out[41:], math.Float64bits(spec.dpNoise))
	binary.LittleEndian.PutUint64(out[49:], math.Float64bits(spec.lrScale))
}

// beginPush starts a model-push frame in dst: frame header and push header,
// ready for the model message to be appended in place.
func beginPush(dst []byte, spec PushSpec) []byte {
	dst = beginFrame(dst, MsgModelPush)
	dst = append(dst, make([]byte, pushHeaderLen)...)
	putPushHeader(dst[len(dst)-pushHeaderLen:], spec)
	return dst
}

// ModelPush builds a push payload around a model message built elsewhere.
func ModelPush(spec PushSpec, model []byte) []byte {
	out := make([]byte, pushHeaderLen, pushHeaderLen+len(model))
	putPushHeader(out, spec)
	return append(out, model...)
}

// parseModelPush splits a push payload.
func parseModelPush(p []byte) (spec PushSpec, model []byte, err error) {
	if len(p) < pushHeaderLen {
		return PushSpec{}, nil, fmt.Errorf("transport: model push payload too short")
	}
	spec = PushSpec{
		Round:       binary.LittleEndian.Uint64(p[0:]),
		Epochs:      int(binary.LittleEndian.Uint32(p[8:])),
		Batch:       int(binary.LittleEndian.Uint32(p[12:])),
		Lambda:      math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
		attack:      p[24],
		attackScale: math.Float64frombits(binary.LittleEndian.Uint64(p[25:])),
		dpClip:      math.Float64frombits(binary.LittleEndian.Uint64(p[33:])),
		dpNoise:     math.Float64frombits(binary.LittleEndian.Uint64(p[41:])),
		lrScale:     math.Float64frombits(binary.LittleEndian.Uint64(p[49:])),
	}
	return spec, p[pushHeaderLen:], nil
}

// updateHeaderLen is the fixed ModelUpdate header: clientID u32,
// numSamples u32, round u64.
const updateHeaderLen = 16

// appendUpdateHeader appends a ModelUpdate header to dst.
func appendUpdateHeader(dst []byte, clientID, numSamples uint32, round uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, clientID)
	dst = binary.LittleEndian.AppendUint32(dst, numSamples)
	return binary.LittleEndian.AppendUint64(dst, round)
}

// ModelUpdate builds an update payload around a model message built
// elsewhere.
func ModelUpdate(clientID, numSamples uint32, round uint64, model []byte) []byte {
	out := make([]byte, 0, updateHeaderLen+len(model))
	return append(appendUpdateHeader(out, clientID, numSamples, round), model...)
}

// ParseModelUpdate splits an update payload.
func ParseModelUpdate(p []byte) (clientID, numSamples uint32, round uint64, model []byte, err error) {
	if len(p) < updateHeaderLen {
		return 0, 0, 0, nil, fmt.Errorf("transport: model update payload too short")
	}
	return binary.LittleEndian.Uint32(p[0:]),
		binary.LittleEndian.Uint32(p[4:]),
		binary.LittleEndian.Uint64(p[8:]),
		p[updateHeaderLen:], nil
}
