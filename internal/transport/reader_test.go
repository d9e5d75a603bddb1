package transport

import (
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/opt"
)

// readerGoroutines counts the goroutines running a peer reader (the read
// loop peers.serve starts).
func readerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "transport.(*peers).serve.func")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// checkNoReaders fails the test if a peer reader outlived the server Run
// that has just returned.
func checkNoReaders(t *testing.T, who string) {
	t.Helper()
	if n := readerGoroutines(); n != 0 {
		t.Errorf("%d peer readers still running after %s Run returned", n, who)
	}
}

// rawPeer is a registered client connection the test drives frame by
// frame, standing in for RunClient.
type rawPeer struct {
	t    *testing.T
	id   uint32
	conn net.Conn
}

// answer reads the next push and answers it with an update echoing the
// pushed model message, which is in the push's codec by construction.
func (p *rawPeer) answer() {
	p.t.Helper()
	p.answerAs(p.id, 50)
}

// answerAs is answer with the update's client id and sample count given.
func (p *rawPeer) answerAs(id, numSamples uint32) {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := ReadFrame(p.conn)
	if err != nil || typ != MsgModelPush {
		p.t.Fatalf("peer %d: read push: type %d, %v", p.id, typ, err)
	}
	spec, model, err := parseModelPush(payload)
	if err != nil {
		p.t.Fatal(err)
	}
	if err := WriteFrame(p.conn, MsgModelUpdate, ModelUpdate(id, numSamples, spec.Round, model)); err != nil {
		p.t.Fatal(err)
	}
}

// fabricRig is a Server brought up by hand to the point Run hands it to the
// engine: n raw peers registered, their readers serving, the live fabric
// built. The test goroutine plays the engine goroutine.
type fabricRig struct {
	t     *testing.T
	srv   *Server
	fab   *liveFabric
	comm  *fl.Comm
	w0    []float64
	peers []*rawPeer
	round uint64
	got   []fl.TrainResult // the last delivered round's results, copied
}

func newFabricRig(t *testing.T, n int) *fabricRig {
	t.Helper()
	shapes := []codec.ShapeInfo{{Name: "w", Dims: []int{4}}}
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: n,
		Run:    fl.RunConfig{Rounds: 1, NumTiers: 1},
		Shapes: shapes, W0: []float64{1, 2, 3, 4},
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig := &fabricRig{t: t, srv: srv, comm: fl.NewComm(codec.NewPolyline(4), shapes), w0: srv.cfg.W0}
	for i := range n {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		reg := register{clientID: uint32(i), numSamples: 50, latencyHintMs: 10}
		if err := WriteFrame(conn, msgRegister, reg.marshal()); err != nil {
			t.Fatal(err)
		}
		rig.peers = append(rig.peers, &rawPeer{t: t, id: uint32(i), conn: conn})
	}
	if err := srv.accept(nil); err != nil {
		t.Fatal(err)
	}
	srv.serve(srv.limit, srv.answer, srv.hangUp)
	rig.fab = &liveFabric{rtClock: newRTClock(), s: srv}
	srv.fab = rig.fab
	t.Cleanup(func() {
		srv.ln.Close()
		srv.shutdown()
		srv.readers.Wait()
		checkNoReaders(t, "the rig's")
		for _, p := range rig.peers {
			p.conn.Close()
		}
	})
	return rig
}

// dispatch starts a round to cohort; run then plays the clock loop until
// the round delivers and returns its results.
func (r *fabricRig) dispatch(cohort ...int) {
	r.round++
	lc := fl.LocalConfig{Round: r.round, Epochs: 1, BatchSize: 1}
	r.fab.Dispatch(r.comm, cohort, r.fab.Now(), r.w0, lc, r.deliver)
}

func (r *fabricRig) deliver(rs []fl.TrainResult, err error) {
	if err != nil {
		r.t.Error(err)
	}
	r.got = slices.Clone(rs)
}

func (r *fabricRig) run() []fl.TrainResult {
	r.t.Helper()
	r.got = nil
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.fab.Run()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		r.t.Fatal("the round never resolved")
	}
	if r.got == nil {
		r.t.Fatal("the round resolved without delivering")
	}
	return r.got
}

// waitGone waits until cc's reader has exited and dropped it.
func (r *fabricRig) waitGone(cc *clientConn) {
	r.t.Helper()
	for i := 0; ; i++ {
		if i > 1000 {
			r.t.Fatalf("peer %d's reader never exited", cc.reg.clientID)
		}
		cc.mu.Lock()
		closed := cc.closed
		cc.mu.Unlock()
		if closed && r.srv.get(cc.reg.clientID) == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wantDropped checks which members of a delivered round came back dropped.
func wantDropped(t *testing.T, rs []fl.TrainResult, dropped ...int) {
	t.Helper()
	for i, r := range rs {
		if r.Client != i {
			t.Fatalf("result %d is client %d", i, r.Client)
		}
		if want := slices.Contains(dropped, i); r.Dropped != want {
			t.Errorf("client %d: dropped %v, want %v", i, r.Dropped, want)
		}
		if !r.Dropped && (r.N != 50 || len(r.Weights) != 4) {
			t.Errorf("client %d: kept result with %d samples and %d weights", i, r.N, len(r.Weights))
		}
	}
}

// TestReaderExitResolvesPendingRound: a member that hangs up after the push
// ends its reader with a round pending; the reader resolves its slot as
// dropped, the round delivers the other member's update, and the client is
// gone from the registry.
func TestReaderExitResolvesPendingRound(t *testing.T) {
	rig := newFabricRig(t, 2)
	rig.dispatch(0, 1)
	rig.peers[0].answer()
	rig.peers[1].conn.Close()
	wantDropped(t, rig.run(), 1)
	if rig.srv.get(1) != nil {
		t.Error("the client that hung up mid-round is still registered")
	}
	// The survivor serves the next round as before.
	rig.dispatch(0)
	rig.peers[0].answer()
	wantDropped(t, rig.run())
}

// TestArmAfterReaderExit: a Dispatch that arms a connection whose reader
// has already exited (it looked the connection up before the reader's exit
// dropped it) resolves that member as dropped at once and pushes nothing,
// instead of waiting for an update no reader will take.
func TestArmAfterReaderExit(t *testing.T) {
	rig := newFabricRig(t, 2)
	cc := rig.srv.get(1)
	rig.peers[1].conn.Close() // idle: its reader exits with no round pending
	rig.waitGone(cc)
	rig.srv.mu.Lock()
	rig.srv.conns[1] = cc // the lookup that raced the exit
	rig.srv.mu.Unlock()

	start := time.Now()
	rig.dispatch(0, 1)
	rig.peers[0].answer()
	wantDropped(t, rig.run(), 1)
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("the round waited %v on a connection with no reader", d)
	}
}

// TestUnsolicitedFrameDropsPeer: a frame that arrives with no round pending
// drops the peer at once — the server closes the connection — rather than
// waiting to be read as the answer to the next push.
func TestUnsolicitedFrameDropsPeer(t *testing.T) {
	rig := newFabricRig(t, 2)
	rig.dispatch(0, 1)
	rig.peers[0].answer()
	rig.peers[1].answer()
	wantDropped(t, rig.run())

	p, cc := rig.peers[0], rig.srv.get(0)
	if err := WriteFrame(p.conn, MsgModelUpdate, ModelUpdate(0, 50, rig.round, []byte{0, 0})); err != nil {
		t.Fatal(err)
	}
	p.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := p.conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("peer read (%d, %v) after an unsolicited frame, want the connection closed", n, err)
	}
	rig.waitGone(cc)

	rig.dispatch(0, 1)
	rig.peers[1].answer()
	wantDropped(t, rig.run(), 0)
}

// TestMisregisteredUpdateDropsPeer: an update whose client id or sample
// count differs from the peer's registration drops the peer, and the round
// resolves with its slot marked dropped. Folded, a claimed count would
// outweigh the rest of the cohort.
func TestMisregisteredUpdateDropsPeer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		id, n uint32
	}{{"count", 1, 5000}, {"id", 0, 50}} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newFabricRig(t, 2)
			rig.dispatch(0, 1)
			rig.peers[0].answer()
			rig.peers[1].answerAs(tc.id, tc.n)
			wantDropped(t, rig.run(), 1)
			if rig.srv.get(1) != nil {
				t.Error("the peer that misstated its registration is still registered")
			}
		})
	}
}

// TestReadersEndWithRun: Server.Run and RootServer.Run start one reader
// per registered peer and join every one of them before returning.
func TestReadersEndWithRun(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		lf := newLiveFederation(t, 4, 0, 31)
		cfg := liveCfg(7)
		cfg.Rounds = 4
		during := -1
		srv, err := NewServer(ServerConfig{
			Addr: "127.0.0.1:0", NumClients: lf.n, Method: fl.Methods["fedat"], Run: cfg,
			Shapes: lf.shapes, W0: lf.factory(cfg.Seed).WeightsCopy(), Dataset: lf.fed.Name,
			Observers: []fl.Observer{fl.ObserverFunc(func(ev fl.Event) {
				if _, ok := ev.(fl.TierFoldEvent); ok && during < 0 {
					during = readerGoroutines()
				}
			})},
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := range lf.n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				RunClient(ClientConfig{
					Addr: srv.Addr(), ID: uint32(i), LatencyHintMs: uint32(10 + 490*(2*i/lf.n)),
					Data: lf.fed.Clients[i], Net: lf.factory(cfg.Seed),
					Opt: opt.NewAdam(cfg.LearningRate), Seed: cfg.Seed,
				})
			}()
		}
		_, _, err = srv.Run()
		checkNoReaders(t, "Server")
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if during != lf.n {
			t.Errorf("%d readers during the run, want one per client (%d)", during, lf.n)
		}
	})
	t.Run("root", func(t *testing.T) {
		w0 := []float64{1, 2, 3, 4}
		shapes := []codec.ShapeInfo{{Name: "w", Dims: []int{4}}}
		root, err := NewRoot(RootConfig{
			Addr: "127.0.0.1:0", Rounds: 2,
			Cloud: edge.CloudConfig{Edges: 2, Fold: edge.FoldSync, W0: w0, Shapes: shapes},
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, _, err := root.Run()
			done <- err
		}()
		edges := []*scriptedEdge{dialScriptedEdge(t, root.Addr(), 0, w0), dialScriptedEdge(t, root.Addr(), 1, w0)}
		for i := 0; readerGoroutines() != len(edges); i++ {
			if i > 1000 {
				t.Fatalf("%d readers once the edges registered, want one per edge (%d)", readerGoroutines(), len(edges))
			}
			time.Sleep(10 * time.Millisecond)
		}
		for i := 0; !edges[0].done(); i++ {
			if i > 1000 {
				t.Fatal("root never completed its fold budget")
			}
			for _, se := range edges {
				se.push(shapes, []float64{2, 2, 2, 2})
			}
			time.Sleep(10 * time.Millisecond)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("root did not return after its budget")
		}
		checkNoReaders(t, "RootServer")
		for _, se := range edges {
			se.conn.conn.Close()
		}
	})
}
