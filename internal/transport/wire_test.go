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
	spec := PushSpec{Round: 9, Epochs: 2, Batch: 8, Lambda: 0.4, attack: 1, attackScale: -4, lrScale: 0.5}
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

// steadyWindow deploys FedAT over loopback (6 clients, 2 per round, the
// paper's codec) and reads the heap counters around a window of steady
// folds. The window opens at the first fold after warm at which every
// client has trained a round: a client's first round allocates its
// training scratch, and how late a tier's first rounds come is a
// scheduling race between the two tier loops, which a loaded machine can
// stretch well past warm. The run ends when the window closes, the way it
// ends at its budget (the fabric stops; rounds in flight resolve), so the
// budget is only a bound on a window that never opens. It returns the
// counters at the window's ends and the value events emitted inside it:
// round starts and folds are engine-owned and box without allocating.
func (lf *liveFederation) steadyWindow(t *testing.T, warm, steady int) (before, after runtime.MemStats, events int) {
	t.Helper()
	cfg := liveCfg(5)
	cfg.Rounds = warm + 20*steady
	cfg.ClientsPerRound = 2
	cfg.Codec = codec.NewPolyline(4)
	trained := make([]bool, lf.n)
	untrained := lf.n
	folds, open := 0, -1 // open: the fold count the window opened at
	run, _, clientErrs := lf.runLiveObserved(t, fl.Methods["fedat"], cfg, nil, fl.ObserverFunc(func(ev fl.Event) {
		switch ev.(type) {
		case fl.RoundStartEvent, fl.TierFoldEvent:
		default:
			if open >= 0 && folds < open+steady {
				events++
			}
		}
		switch e := ev.(type) {
		case fl.ClientDoneEvent:
			if !e.Dropped && !trained[e.Client] {
				trained[e.Client] = true
				untrained--
			}
		case fl.TierFoldEvent:
			folds++
			switch {
			case open < 0 && folds >= warm && untrained == 0:
				open = folds
				runtime.ReadMemStats(&before)
			case open >= 0 && folds == open+steady:
				runtime.ReadMemStats(&after)
				lf.running.fab.Stop()
			}
		}
	}))
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if open < 0 || folds < open+steady || run.GlobalRounds < open+steady {
		t.Fatalf("no window of %d steady folds in %d: it opened at fold %d, %d clients untrained", steady, folds, open, untrained)
	}
	return before, after, events
}

// TestLiveSteadyStateBytes reads the heap counters over a steady window
// of a loopback FedAT run: once pools and frame buffers are warm, a global
// update — two cohort pushes' worth of frames built, written, read and
// decoded on both ends of every connection — must allocate less than a
// quarter of one model's bytes. (Frame poisoning is on for the whole
// package, so the same run certifies no frame is read after return.) A
// 2-vCPU box measured 176–570 B against the 1,796 B bound, and up to 883 B
// with three runs at once: the weight pool grows to a new high-water mark
// of arrivals in flight when folds fall behind.
func TestLiveSteadyStateBytes(t *testing.T) {
	const steady = 60
	lf := newLiveFederation(t, 6, 0, 21)
	before, after, _ := lf.steadyWindow(t, 20, steady)
	if testutil.RaceEnabled {
		return // -race instruments allocations; the byte count is meaningless
	}
	perUpdate := float64(after.TotalAlloc-before.TotalAlloc) / steady
	model := float64(8 * lf.factory(5).NumParams())
	if perUpdate >= model/4 {
		t.Errorf("%.0f bytes allocated per update in steady state, a quarter of the model is %.0f", perUpdate, model/4)
	}
	t.Logf("%.0f B/update steady state over loopback (model %.0f B)", perUpdate, model)
}

// TestLiveRoundAllocFree counts the whole process's allocations over a
// steady window of a loopback FedAT run: server and clients together must
// allocate nothing beyond the value events the engine emits (a round start
// or fold boxed by value again adds 60 or more). A live round takes
// its record from the fabric's free list and arms the members' persistent
// readers, which decode into pooled buffers; the clients train, frame and
// skip their unset log line without allocating. The allowance covers the
// Go runtime's own allocations (a sudog for a contended mutex, say, after
// a GC emptied the runtime's caches) and a pool growing to a new
// high-water mark of arrivals in flight; a goroutine or closure per member
// or per round adds at least 60.
func TestLiveRoundAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race instruments allocations; the count is meaningless")
	}
	const warm, steady, slack = 20, 60, 20
	lf := newLiveFederation(t, 6, 0, 21)
	// The runtime's allocations come in bursts that depend on scheduling;
	// the rounds' are the same every run. So the best of three runs is
	// compared.
	allocs, events := -1, 0
	for range 3 {
		before, after, e := lf.steadyWindow(t, warm, steady)
		if a := int(after.Mallocs - before.Mallocs); allocs < 0 || a-e < allocs-events {
			allocs, events = a, e
		}
	}
	if allocs > events+slack {
		t.Errorf("%d allocations over %d steady folds, which emitted %d value events: %d beyond them, allowance %d",
			allocs, steady, events, allocs-events, slack)
	}
	t.Logf("%d allocations, %d value events over %d steady folds (%d beyond them)", allocs, events, steady, allocs-events)
}
