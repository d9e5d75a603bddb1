package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/fl"
	"repro/internal/testutil"
)

// countingWriter records how many Write calls a frame takes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestFrameBuiltInPlace: a push frame built behind beginPush with the model
// appended in place is byte-identical to the header-then-payload form, and
// goes out in one Write.
func TestFrameBuiltInPlace(t *testing.T) {
	shapes := []codec.ShapeInfo{{Name: "W", Dims: []int{5}}}
	w := []float64{0.1, -0.2, 0.3, -0.4, 0.5}
	spec := PushSpec{Round: 9, Epochs: 2, Batch: 8, Lambda: 0.4, Attack: 1, AttackScale: -4, LRScale: 0.5}
	c := codec.NewPolyline(4)

	model, err := codec.MarshalModel(c, shapes, w)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteFrame(&want, MsgModelPush, ModelPush(spec, model)); err != nil {
		t.Fatal(err)
	}

	frame, err := codec.AppendModel(beginPush(frames.Get(0), spec), c, shapes, w)
	if err != nil {
		t.Fatal(err)
	}
	defer frames.Put(frame)
	var got countingWriter
	if err := writeFrame(&got, frame); err != nil {
		t.Fatal(err)
	}
	if got.writes != 1 {
		t.Errorf("frame took %d writes, want 1", got.writes)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("in-place frame differs from WriteFrame(ModelPush(MarshalModel))")
	}

	upd := appendUpdateHeader(beginFrame(nil, MsgModelUpdate), 3, 50, 9)
	want.Reset()
	if err := WriteFrame(&want, MsgModelUpdate, ModelUpdate(3, 50, 9, nil)); err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if err := writeFrame(&got, upd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("in-place update header differs from ModelUpdate")
	}
}

// TestReadFrameRefusesOversizeBeforeBuffering: a length above the
// connection's limit is an error as soon as the header is in — nothing past
// the header is read and no buffer is borrowed for it.
func TestReadFrameRefusesOversizeBeforeBuffering(t *testing.T) {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], 63<<20)
	hdr[4] = MsgModelUpdate
	r := io.MultiReader(bytes.NewReader(hdr[:]), failingReader{t})
	var scratch [frameHeaderLen]byte
	limit := frameLimit([]codec.ShapeInfo{{Name: "W", Dims: []int{1000}}})
	if limit >= 63<<20 || limit < 8*1000 {
		t.Fatalf("frameLimit of a 1000-element model = %d", limit)
	}
	if _, _, err := readFrame(r, &scratch, limit); err == nil {
		t.Fatal("63 MiB announcement accepted on a connection limited to a 1000-element model")
	}
	// At the limit itself the frame is read.
	ok := make([]byte, 4+limit)
	binary.LittleEndian.PutUint32(ok, uint32(limit))
	_, payload, err := readFrame(bytes.NewReader(ok), &scratch, limit)
	if err != nil || len(payload) != limit-1 {
		t.Fatalf("frame of exactly the limit: %d bytes, %v", len(payload), err)
	}
	frames.Put(payload)
}

type failingReader struct{ t *testing.T }

func (r failingReader) Read([]byte) (int, error) {
	r.t.Error("read past the header of an oversized frame")
	return 0, io.ErrUnexpectedEOF
}

// TestOversizedAnnouncementDropsPeer: a registered client answers the push
// with a header announcing 63 MiB and sends nothing. The server must drop
// it on the announcement alone — the default round timeout is five minutes
// and is not what releases the round here — and finish on the survivors.
func TestOversizedAnnouncementDropsPeer(t *testing.T) {
	runWithFlaky(t, func(conn net.Conn, _ []byte) {
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[:], 63<<20)
		hdr[4] = MsgModelUpdate
		if _, err := conn.Write(hdr[:]); err != nil {
			return
		}
		conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		if _, err := conn.Read(hdr[:]); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Error("server still holds the connection 20 s after a 63 MiB announcement")
			}
		}
	})
}

// TestUnregisteredPeerCannotAnnounceLargeFrame: before registration the
// only acceptable frame is a register; a connection opening with a large
// announcement is closed without the server reading (or buffering) on.
func TestUnregisteredPeerCannotAnnounceLargeFrame(t *testing.T) {
	lf := newLiveFederation(t, 1, 0, 41)
	cfg := liveCfg(3)
	cfg.NumTiers = 1
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Method: fl.Methods["fedavg"], Run: cfg,
		Shapes: lf.shapes, W0: lf.factory(cfg.Seed).WeightsCopy(), Dataset: lf.fed.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run()
	}()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<20)
	hdr[4] = msgRegister
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	if _, err := conn.Read(hdr[:]); err == nil {
		t.Error("server answered an oversized registration")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Error("server kept an unregistered connection that announced 1 MiB")
	}
	srv.Shutdown()
	<-done
}

// TestLiveSteadyStateBytes runs FedAT over loopback under the paper's codec
// and reads the heap counters from inside the run: once pools and frame
// buffers are warm, a global update — two cohort pushes' worth of frames
// built, written, read and decoded on both ends of every connection — must
// allocate less than one model's bytes. (Frame poisoning is on for the
// whole package, so the same run certifies no frame is read after return.)
func TestLiveSteadyStateBytes(t *testing.T) {
	lf := newLiveFederation(t, 6, 0, 21)
	cfg := liveCfg(5)
	const warm = 20
	cfg.Rounds = 80
	cfg.ClientsPerRound = 2
	cfg.Codec = codec.NewPolyline(4)
	var before, after runtime.MemStats
	folds := 0
	run, _, clientErrs := lf.runLiveObserved(t, fl.Methods["fedat"], cfg, nil, fl.ObserverFunc(func(ev fl.Event) {
		if _, ok := ev.(fl.TierFoldEvent); !ok {
			return
		}
		switch folds++; folds {
		case warm:
			runtime.ReadMemStats(&before)
		case cfg.Rounds:
			runtime.ReadMemStats(&after)
		}
	}))
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if run.GlobalRounds < cfg.Rounds {
		t.Fatalf("only %d global rounds completed", run.GlobalRounds)
	}
	if testutil.RaceEnabled {
		return // -race instruments allocations; the byte count is meaningless
	}
	perUpdate := float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Rounds-warm)
	model := float64(8 * lf.factory(cfg.Seed).NumParams())
	if perUpdate >= model {
		t.Errorf("%.0f bytes allocated per update in steady state, one model is %.0f", perUpdate, model)
	}
	t.Logf("%.0f B/update steady state over loopback (model %.0f B)", perUpdate, model)
}
