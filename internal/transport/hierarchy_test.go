package transport

import (
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// runLiveEdge deploys one edge server (its engine carrying the given
// uplink as a Syncer) plus lf.n in-process leaf clients, and returns the
// edge's run record and final model.
func (lf *liveFederation) runLiveEdge(t *testing.T, method fl.Method, cfg fl.RunConfig, up *EdgeUplink) (*metrics.Run, []float64) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: lf.n,
		Method:     method,
		Run:        cfg,
		Shapes:     lf.shapes,
		W0:         lf.factory(cfg.Seed).WeightsCopy(),
		Dataset:    lf.fed.Name,
		Observers:  []fl.Observer{up},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	clientErrs := make([]error, lf.n)
	for i := 0; i < lf.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientErrs[i] = RunClient(ClientConfig{
				Addr: srv.Addr(), ID: uint32(i), LatencyHintMs: 10,
				Data: lf.fed.Clients[i], Net: lf.factory(cfg.Seed),
				Opt: opt.NewAdam(cfg.LearningRate), Codec: cfg.Codec, Seed: cfg.Seed,
			})
		}(i)
	}

	type outcome struct {
		run   *metrics.Run
		final []float64
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		run, final, err := srv.Run()
		done <- outcome{run, final, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("edge server did not finish in time")
	}
	wg.Wait()
	if out.err != nil {
		t.Fatalf("edge server error: %v", out.err)
	}
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("leaf client %d error: %v", i, err)
		}
	}
	return out.run, out.final
}

// TestLiveEdgeMatchesSimulated extends the cross-fabric contract one layer
// up: a single-edge hierarchy over real TCP — root process, edge server,
// leaf clients — produces bit-identical final weights to the flat
// in-process simulator run, and the root's merged model is bit-identical
// to the edge's (the raw uplink is lossless and a 1-edge cloud is a pure
// pass-through).
func TestLiveEdgeMatchesSimulated(t *testing.T) {
	const n = 6
	seed := uint64(13)
	lf := newLiveFederation(t, n, 0, seed)
	cfg := liveCfg(seed)
	cfg.Rounds = 3
	cfg.Codec = codec.NewPolyline(4)
	w0 := lf.factory(cfg.Seed).WeightsCopy()

	// Flat simulated run.
	pop, err := simnet.NewPopulation(simnet.ClusterConfig{NumClients: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	env, err := fl.NewEnv(lf.fed, pop, lf.factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var simFinal []float64
	if _, err := fl.Methods["fedavg"].Run(env, captureFinal(&simFinal)); err != nil {
		t.Fatal(err)
	}

	// Live hierarchy: root ← edge ← leaf clients.
	root, err := NewRoot(RootConfig{
		Addr: "127.0.0.1:0",
		Cloud: edge.CloudConfig{
			Edges: 1, W0: tensor.Copy(w0), Shapes: lf.shapes,
			Dataset: lf.fed.Name, Method: "fedavg",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	type rootOut struct {
		run   *metrics.Run
		final []float64
		err   error
	}
	rootDone := make(chan rootOut, 1)
	go func() {
		run, final, err := root.Run()
		rootDone <- rootOut{run, final, err}
	}()

	up, err := DialUplink(UplinkConfig{
		Root: root.Addr(), EdgeID: 0, NumClients: n,
		W0: tensor.Copy(w0), Shapes: lf.shapes,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, liveFinal := lf.runLiveEdge(t, fl.Methods["fedavg"], cfg, up)
	healthy := !up.isDegraded() // sample before Close tears the connection down
	up.Close()                  // edge engine done; root sees the departure and finishes

	var ro rootOut
	select {
	case ro = <-rootDone:
	case <-time.After(60 * time.Second):
		t.Fatal("root did not finish in time")
	}
	if ro.err != nil {
		t.Fatalf("root error: %v", ro.err)
	}

	if len(simFinal) == 0 || len(simFinal) != len(liveFinal) {
		t.Fatalf("weight vectors missing or mismatched: sim=%d live=%d", len(simFinal), len(liveFinal))
	}
	for i := range simFinal {
		if simFinal[i] != liveFinal[i] {
			t.Fatalf("weight %d diverged between flat sim and live edge: %v vs %v", i, simFinal[i], liveFinal[i])
		}
	}
	for i := range liveFinal {
		if ro.final[i] != liveFinal[i] {
			t.Fatalf("weight %d diverged between edge and root: %v vs %v", i, liveFinal[i], ro.final[i])
		}
	}
	if ro.run.EdgeFolds != cfg.Rounds {
		t.Fatalf("root folded %d times, want one per edge fold = %d", ro.run.EdgeFolds, cfg.Rounds)
	}
	if ro.run.UpBytes <= 0 {
		t.Fatal("root recorded no uplink traffic")
	}
	if !healthy {
		t.Fatal("uplink degraded during a healthy run")
	}
}

// scriptedEdge is a raw protocol driver standing in for an edge
// aggregator: it registers, then pushes synthetic models on demand, raw
// unless cdc is set. It never advances ref, so a top-k script pushes once.
type scriptedEdge struct {
	t    *testing.T
	conn *clientConn
	cdc  codec.Codec
	ref  []float64
	seq  uint64
	gone chan struct{} // closed when the root closes the connection

	mu        sync.Mutex
	adoptions int
	shutdown  bool
}

func dialScriptedEdge(t *testing.T, addr string, id int, w0 []float64) *scriptedEdge {
	t.Helper()
	conn, err := dialRetry(addr)
	if err != nil {
		t.Fatal(err)
	}
	reg := register{clientID: uint32(id), numSamples: 1}
	if err := WriteFrame(conn, msgRegister, reg.marshal()); err != nil {
		t.Fatal(err)
	}
	se := &scriptedEdge{
		t:    t,
		conn: &clientConn{reg: reg, conn: conn},
		cdc:  codec.Raw{},
		ref:  tensor.Copy(w0),
		gone: make(chan struct{}),
	}
	go func() {
		defer close(se.gone)
		for {
			typ, _, err := ReadFrame(conn)
			if err != nil {
				return
			}
			se.mu.Lock()
			switch typ {
			case MsgModelPush:
				se.adoptions++
			case msgShutdown:
				se.shutdown = true
			}
			se.mu.Unlock()
		}
	}()
	return se
}

func (se *scriptedEdge) push(shapes []codec.ShapeInfo, w []float64) {
	se.t.Helper()
	msg, err := edge.EncodeUplink(se.cdc, shapes, se.ref, w)
	if err != nil {
		se.t.Error(err)
		return
	}
	se.seq++
	if err := WriteFrame(se.conn.conn, MsgModelUpdate, ModelUpdate(se.conn.reg.clientID, 0, se.seq, msg)); err != nil {
		se.t.Logf("scripted edge push: %v", err)
	}
}

func (se *scriptedEdge) done() bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.shutdown
}

// TestRootSurvivesEdgeDisconnect is the live failure mode: one of two
// edges dies mid-run. The root retires it — completing the sync barrier
// for the survivor if the dead edge was the holdout — and keeps folding
// the surviving edge until the cloud budget completes.
func TestRootSurvivesEdgeDisconnect(t *testing.T) {
	w0 := []float64{1, 2, 3, 4}
	shapes := []codec.ShapeInfo{{Name: "w", Dims: []int{4}}}
	const budget = 4

	root, err := NewRoot(RootConfig{
		Addr: "127.0.0.1:0", Rounds: budget,
		Cloud: edge.CloudConfig{Edges: 2, Fold: edge.FoldSync, W0: w0, Shapes: shapes},
	})
	if err != nil {
		t.Fatal(err)
	}
	type rootOut struct {
		run *metrics.Run
		err error
	}
	rootDone := make(chan rootOut, 1)
	go func() {
		run, _, err := root.Run()
		rootDone <- rootOut{run, err}
	}()

	survivor := dialScriptedEdge(t, root.Addr(), 0, w0)
	victim := dialScriptedEdge(t, root.Addr(), 1, w0)

	// Round 1: both edges push; the barrier completes and the cloud folds.
	survivor.push(shapes, []float64{2, 2, 2, 2})
	victim.push(shapes, []float64{4, 4, 4, 4})

	// Round 2: the survivor pushes, then the victim dies mid-fold — the
	// root must retire it, fold the survivor alone, and keep going.
	survivor.push(shapes, []float64{3, 3, 3, 3})
	victim.conn.conn.Close()

	// The survivor keeps pushing until the root completes its budget.
	deadline := time.After(30 * time.Second)
	for !survivor.done() {
		select {
		case <-deadline:
			t.Fatal("root never completed its fold budget on the survivor alone")
		case <-time.After(20 * time.Millisecond):
			survivor.push(shapes, []float64{5, 5, 5, 5})
		}
	}

	var ro rootOut
	select {
	case ro = <-rootDone:
	case <-time.After(30 * time.Second):
		t.Fatal("root did not return after its budget")
	}
	if ro.err != nil {
		t.Fatalf("root error: %v", ro.err)
	}
	if ro.run.EdgeFolds < budget {
		t.Fatalf("root folded %d times, want at least the %d budget", ro.run.EdgeFolds, budget)
	}
	survivor.mu.Lock()
	adoptions := survivor.adoptions
	survivor.mu.Unlock()
	if adoptions == 0 {
		t.Fatal("survivor never received an adoption broadcast")
	}
	survivor.conn.conn.Close()
}

// TestRootRetiresRejectedEdge: an edge whose push the cloud cannot fold (here
// a model of the wrong size, as from an edge built with another -seed) is
// retired like a departed one. Kept in the sync barrier, it would stall every
// cloud fold; retired, its connection closes without a shutdown frame and
// the other edge folds alone up to the budget.
func TestRootRetiresRejectedEdge(t *testing.T) {
	w0 := []float64{1, 2, 3, 4}
	shapes := []codec.ShapeInfo{{Name: "w", Dims: []int{4}}}
	const budget = 3

	root, err := NewRoot(RootConfig{
		Addr: "127.0.0.1:0", Rounds: budget,
		Cloud: edge.CloudConfig{Edges: 2, Fold: edge.FoldSync, W0: w0, Shapes: shapes},
	})
	if err != nil {
		t.Fatal(err)
	}
	rootDone := make(chan error, 1)
	go func() {
		_, _, err := root.Run()
		rootDone <- err
	}()

	good := dialScriptedEdge(t, root.Addr(), 0, w0)
	defer good.conn.conn.Close()
	bad := dialScriptedEdge(t, root.Addr(), 1, w0)
	defer bad.conn.conn.Close()
	bad.push([]codec.ShapeInfo{{Name: "w", Dims: []int{3}}}, []float64{7, 7, 7})

	deadline := time.After(30 * time.Second)
	for !good.done() {
		select {
		case <-deadline:
			t.Fatal("root never completed its fold budget past the rejected edge")
		case <-time.After(20 * time.Millisecond):
			good.push(shapes, []float64{5, 5, 5, 5})
		}
	}
	if err := <-rootDone; err != nil {
		t.Fatalf("root error: %v", err)
	}
	select {
	case <-bad.gone:
	case <-time.After(30 * time.Second):
		t.Fatal("the rejected edge's connection stayed open")
	}
	if bad.done() {
		t.Fatal("the rejected edge got the shutdown frame of a kept edge")
	}
}

// TestRootDecodesEdgeCodec: the root decodes each push by the codec its
// model message names, whatever its own TopKFrac. A root configured raw
// folds an edge's top-k push as reference + delta, not as the mostly-zero
// absolute model the delta would be on its own.
func TestRootDecodesEdgeCodec(t *testing.T) {
	w0 := []float64{1, 2, 3, 4}
	shapes := []codec.ShapeInfo{{Name: "w", Dims: []int{4}}}
	root, err := NewRoot(RootConfig{
		Addr: "127.0.0.1:0", Rounds: 1,
		Cloud: edge.CloudConfig{Edges: 1, W0: w0, Shapes: shapes},
	})
	if err != nil {
		t.Fatal(err)
	}
	type rootOut struct {
		final []float64
		err   error
	}
	rootDone := make(chan rootOut, 1)
	go func() {
		_, final, err := root.Run()
		rootDone <- rootOut{final, err}
	}()

	se := dialScriptedEdge(t, root.Addr(), 0, w0)
	defer se.conn.conn.Close()
	se.cdc = codec.NewTopK(0.5)
	// The delta against w0 is {0, 0, 10, 20}: top-k 0.5 keeps all of it.
	se.push(shapes, []float64{1, 2, 13, 24})

	var ro rootOut
	select {
	case ro = <-rootDone:
	case <-time.After(30 * time.Second):
		t.Fatal("root did not fold the top-k push")
	}
	if ro.err != nil {
		t.Fatalf("root error: %v", ro.err)
	}
	if want := []float64{1, 2, 13, 24}; !slices.Equal(ro.final, want) {
		t.Fatalf("root folded %v, want reference + delta %v", ro.final, want)
	}
}

// TestUplinkDegradesToStandalone: the root completes its fold budget and
// shuts the uplink down while the edge engine still has rounds to run. The
// edge degrades to a flat standalone server and completes its own budget.
func TestUplinkDegradesToStandalone(t *testing.T) {
	const n = 4
	seed := uint64(29)
	lf := newLiveFederation(t, n, 0, seed)
	cfg := liveCfg(seed)
	cfg.Rounds = 4
	w0 := lf.factory(cfg.Seed).WeightsCopy()

	root, err := NewRoot(RootConfig{
		Addr: "127.0.0.1:0", Rounds: 1, // budget far below the edge's
		Cloud: edge.CloudConfig{Edges: 1, W0: tensor.Copy(w0), Shapes: lf.shapes},
	})
	if err != nil {
		t.Fatal(err)
	}
	rootDone := make(chan error, 1)
	go func() {
		_, _, err := root.Run()
		rootDone <- err
	}()

	up, err := DialUplink(UplinkConfig{
		Root: root.Addr(), EdgeID: 0, NumClients: n,
		W0: tensor.Copy(w0), Shapes: lf.shapes,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, final := lf.runLiveEdge(t, fl.Methods["fedavg"], cfg, up)
	up.Close()

	if err := <-rootDone; err != nil {
		t.Fatalf("root error: %v", err)
	}
	if run.GlobalRounds < cfg.Rounds {
		t.Fatalf("degraded edge completed only %d/%d rounds", run.GlobalRounds, cfg.Rounds)
	}
	if !moved(w0, final) {
		t.Fatal("degraded edge's model never moved")
	}
	if !up.isDegraded() {
		t.Fatal("uplink should have degraded after the root's shutdown")
	}
}

// TestDialUplinkRejectsTopKOutOfRange: a top-k fraction outside [0, 1] is
// refused before the edge dials the root. Above 1 the codec would slice
// past the weight vector at the edge's first push; NaN would silently
// send raw pushes.
func TestDialUplinkRejectsTopKOutOfRange(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, frac := range []float64{1.5, -0.1, math.NaN()} {
		up, err := DialUplink(UplinkConfig{Root: ln.Addr().String(), TopKFrac: frac, W0: make([]float64, 10),
			Shapes: []codec.ShapeInfo{{Name: "W", Dims: []int{10}}}})
		if err == nil {
			up.Close()
			t.Fatalf("DialUplink accepted top-k fraction %g", frac)
		}
		if !strings.Contains(err.Error(), "top-k fraction") {
			t.Fatalf("fraction %g: error %q, want the out-of-range message", frac, err)
		}
	}
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
	if c, err := ln.Accept(); err == nil {
		c.Close()
		t.Fatal("DialUplink dialed the root before checking its fraction")
	}
}

// TestUplinkDropsOlderAdoption: the root sends an edge its adoptions from
// the reader goroutine of whichever edge's push folded, so epoch 3 can reach
// the edge before epoch 2. The older adoption must not replace the newer
// one in the mailbox: the next fold rebases onto epoch 3 and stamps it.
func TestUplinkDropsOlderAdoption(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		go io.Copy(io.Discard, c) // the registration and the edge's pushes
		accepted <- c
	}()
	shapes := []codec.ShapeInfo{{Name: "W", Dims: []int{4}}}
	up, err := DialUplink(UplinkConfig{Root: ln.Addr().String(), W0: make([]float64, 4), Shapes: shapes})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	root, ok := <-accepted
	if !ok {
		t.Fatal("the test root accepted no connection")
	}
	defer root.Close()

	for _, epoch := range []int{3, 2} {
		v := float64(epoch)
		model, err := codec.MarshalModel(codec.Raw{}, shapes, []float64{v, v, v, v})
		if err != nil {
			t.Fatal(err)
		}
		if err := up.receiveAdoption(ModelPush(PushSpec{Round: uint64(epoch), Epochs: 2}, model)); err != nil {
			t.Fatal(err)
		}
	}
	d := up.AfterFold(fl.FoldInfo{Global: make([]float64, 4)})
	if want := []float64{3, 3, 3, 3}; !slices.Equal(d.Rebase, want) {
		t.Fatalf("rebased onto %v, want epoch 3's %v", d.Rebase, want)
	}
	if len(d.Events) != 1 {
		t.Fatalf("%d events, want one adoption", len(d.Events))
	}
	if ev, ok := d.Events[0].(fl.EdgeFoldEvent); !ok || ev.Round != 3 {
		t.Fatalf("adoption event %+v, want an EdgeFoldEvent of round 3", d.Events[0])
	}
}
