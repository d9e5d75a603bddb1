package transport

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello fedat")
	if err := WriteFrame(&buf, MsgModelPush, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgModelPush || string(got) != string(payload) {
		t.Fatalf("frame corrupted: %d %q", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msgShutdown, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil || typ != msgShutdown || len(got) != 0 {
		t.Fatalf("empty frame: %v %d %v", err, typ, got)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, msgRegister, []byte{1, 2, 3})
	data := buf.Bytes()[:buf.Len()-2]
	if _, _, err := ReadFrame(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestRegisterRoundTrip(t *testing.T) {
	r := register{clientID: 7, numSamples: 123, latencyHintMs: 4500}
	got, err := parseRegister(r.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("register corrupted: %+v", got)
	}
	if _, err := parseRegister([]byte{1, 2}); err == nil {
		t.Fatal("short register accepted")
	}
}

func TestModelMessagesRoundTrip(t *testing.T) {
	model := []byte("model-bytes")
	spec := PushSpec{Round: 42, Epochs: 3, Batch: 10, Lambda: 0.4, lrScale: 0.75}
	gotSpec, m, err := parseModelPush(ModelPush(spec, model))
	if err != nil || gotSpec != spec || string(m) != string(model) {
		t.Fatalf("push corrupted: %v %+v %q", err, gotSpec, m)
	}
	cid, n, rd, m2, err := ParseModelUpdate(ModelUpdate(3, 99, 42, model))
	if err != nil || cid != 3 || n != 99 || rd != 42 || string(m2) != string(model) {
		t.Fatalf("update corrupted: %v %d %d %d %q", err, cid, n, rd, m2)
	}
	if _, _, err := parseModelPush([]byte{1}); err == nil {
		t.Fatal("short push accepted")
	}
	if _, _, _, _, err := ParseModelUpdate([]byte{1, 2, 3}); err == nil {
		t.Fatal("short update accepted")
	}
}

// ---------------------------------------------------------------------------
// Live-fabric helpers

// liveFederation is one in-process deployment testbed: a synthetic
// federation plus the model factory both sides derive from the shared seed.
type liveFederation struct {
	fed     *dataset.Federated
	factory fl.ModelFactory
	shapes  []codec.ShapeInfo
	n       int
	// running is the server of the deployment runLiveObserved started
	// last, set before its run begins, so an observer can end the run.
	running *Server
}

func newLiveFederation(t *testing.T, n, classesPer int, seed uint64) *liveFederation {
	t.Helper()
	fed, err := dataset.FashionLike(n, classesPer, dataset.ScaleSmall, seed)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(s uint64) *nn.Network {
		return nn.NewMLP(rng.New(s), fed.InDim, 8, fed.Classes)
	}
	return &liveFederation{fed: fed, factory: factory, shapes: factory(seed).ParamShapes(), n: n}
}

// runLive deploys the method over loopback TCP: one server, lf.n in-process
// clients (ids 0..n-1, two latency-hint tiers), and returns the run record,
// the final global model, and the per-client errors.
func (lf *liveFederation) runLive(t *testing.T, method fl.Method, cfg fl.RunConfig, eval *fl.Evaluator) (*metrics.Run, []float64, []error) {
	t.Helper()
	return lf.runLiveObserved(t, method, cfg, eval)
}

func liveCfg(seed uint64) fl.RunConfig {
	return fl.RunConfig{
		Rounds:          3,
		ClientsPerRound: 3,
		LocalEpochs:     1,
		BatchSize:       8,
		Lambda:          0.4,
		LearningRate:    0.01,
		NumTiers:        2,
		Seed:            seed,
	}
}

func moved(w0, w []float64) bool {
	for i := range w {
		if w[i] != w0[i] {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// End-to-end deployments

// TestEndToEndFedAT runs the registry's FedAT — tier-paced, Eq. 5 fold —
// over real localhost TCP, driven by the same policy engine as the
// simulator. It asserts what the engine guarantees on a wall clock: every
// tier's loop dispatches a round, the budget completes and the model moves.
// Which tier's rounds land inside a six-update budget is a scheduling race
// between loopback clients — one tier regularly takes all six — so fold
// counts per tier are not asserted.
func TestEndToEndFedAT(t *testing.T) {
	lf := newLiveFederation(t, 6, 0, 21)
	cfg := liveCfg(5)
	cfg.Rounds = 6
	var tierStarts [2]int
	run, final, clientErrs := lf.runLiveObserved(t, fl.Methods["fedat"], cfg, nil, fl.ObserverFunc(func(ev fl.Event) {
		if e, ok := ev.(fl.RoundStartEvent); ok && e.Tier >= 0 && e.Tier < 2 {
			tierStarts[e.Tier]++
		}
	}))
	if run.GlobalRounds < cfg.Rounds {
		t.Fatalf("only %d global rounds completed", run.GlobalRounds)
	}
	for m, c := range tierStarts {
		if c == 0 {
			t.Fatalf("tier %d never started a round: %v", m, tierStarts)
		}
	}
	if !moved(lf.factory(cfg.Seed).WeightsCopy(), final) {
		t.Fatal("global model never moved")
	}
	if run.UpBytes <= 0 || run.DownBytes <= 0 {
		t.Fatalf("no communication recorded: up=%d down=%d", run.UpBytes, run.DownBytes)
	}
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d error: %v", i, err)
		}
	}
}

// runLiveObserved is the shared deployment body: one server (with optional
// extra observers on its engine), lf.n honest in-process clients split over
// two latency-hint tiers, and a watchdog on the server's completion.
func (lf *liveFederation) runLiveObserved(t *testing.T, method fl.Method, cfg fl.RunConfig, eval *fl.Evaluator, obs ...fl.Observer) (*metrics.Run, []float64, []error) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: lf.n,
		Method:     method,
		Run:        cfg,
		Shapes:     lf.shapes,
		W0:         lf.factory(cfg.Seed).WeightsCopy(),
		Dataset:    lf.fed.Name,
		Eval:       eval,
		Observers:  obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	lf.running = srv

	var wg sync.WaitGroup
	clientErrs := make([]error, lf.n)
	for i := 0; i < lf.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hint := uint32(10)
			if i >= lf.n/2 {
				hint = 500 // slow tier
			}
			clientErrs[i] = RunClient(ClientConfig{
				Addr: srv.Addr(), ID: uint32(i), LatencyHintMs: hint,
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
		t.Fatal("server did not finish in time")
	}
	wg.Wait()
	if out.err != nil {
		t.Fatalf("server error: %v", out.err)
	}
	return out.run, out.final, clientErrs
}

// TestAllRegistryMethodsOverLoopback deploys every method in the registry —
// synchronous, tier-paced and wait-free alike — over loopback TCP. The
// acceptance bar for the fabric abstraction: any composition the simulator
// runs, the live path runs too, with no per-method transport code.
func TestAllRegistryMethodsOverLoopback(t *testing.T) {
	for _, name := range fl.MethodNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			lf := newLiveFederation(t, 4, 0, 31)
			cfg := liveCfg(7)
			cfg.Rounds = 2
			cfg.ClientsPerRound = 2
			// TiFL's accuracy-driven selection wants a server-side
			// evaluation harness; give every method one so Eval events
			// flow on the live fabric too.
			eval := fl.NewDataEvaluator(lf.factory, cfg.Seed, lf.fed.Clients)
			run, final, clientErrs := lf.runLive(t, fl.Methods[name], cfg, eval)
			if run.GlobalRounds < cfg.Rounds {
				t.Fatalf("%s: only %d global rounds completed", name, run.GlobalRounds)
			}
			if len(run.Points) == 0 {
				t.Fatalf("%s: no evaluations recorded on the live fabric", name)
			}
			if !moved(lf.factory(cfg.Seed).WeightsCopy(), final) {
				t.Fatalf("%s: global model never moved", name)
			}
			for i, err := range clientErrs {
				if err != nil {
					t.Fatalf("%s: client %d error: %v", name, i, err)
				}
			}
		})
	}
}

// captureFinal returns an observer recording the latest global model.
func captureFinal(final *[]float64) fl.Observer {
	return fl.ObserverFunc(func(ev fl.Event) {
		if e, ok := ev.(fl.TierFoldEvent); ok {
			*final = append((*final)[:0], e.Global...)
		}
	})
}

// TestLiveMatchesSimulated is the cross-fabric contract: a sync-paced
// method run over real TCP produces bit-identical final weights to an
// in-process simulator run under identical selection — same seed, same
// codec channel, same local schedules, no drops. The engine makes every
// policy decision on both fabrics; only execution differs.
func TestLiveMatchesSimulated(t *testing.T) {
	// The composed case runs the per-update staleness fold with the
	// adaptive-LR stage armed under sync pacing: every cohort member is
	// fresh, so the weight is exactly 1 and both fabrics must skip the LR
	// stage identically — turning AdaptiveLR on cannot perturb a sync run,
	// and the LRScale header field must survive the trip without changing
	// training. (The non-unit scale itself is pinned bit-exactly by
	// TestAdaptiveLRScaleOverTCP; wait-free pacing has no cross-fabric
	// bit contract to compare under.)
	adaptive, err := fl.Compose("fedasync", "random", "sync", "fedasync", "fedasync-sync-adaptive")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		method fl.Method
		mutate func(*fl.RunConfig)
	}{
		{"fedavg", fl.Methods["fedavg"], nil},
		{"fedprox", fl.Methods["fedprox"], nil},
		{"fedasync-sync-adaptive", adaptive, func(cfg *fl.RunConfig) { cfg.AdaptiveLR = true }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			const n = 6
			seed := uint64(13)
			lf := newLiveFederation(t, n, 0, seed)
			cfg := liveCfg(seed)
			cfg.Rounds = 3
			cfg.Codec = codec.NewPolyline(4)
			if c.mutate != nil {
				c.mutate(&cfg)
			}

			// Simulated run: same federation, stable population.
			pop, err := simnet.NewPopulation(simnet.ClusterConfig{NumClients: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			env, err := fl.NewEnv(lf.fed, pop, lf.factory, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var simFinal []float64
			if _, err := c.method.Run(env, captureFinal(&simFinal)); err != nil {
				t.Fatal(err)
			}

			// Live run over loopback TCP.
			_, liveFinal, clientErrs := lf.runLive(t, c.method, cfg, nil)
			for i, err := range clientErrs {
				if err != nil {
					t.Fatalf("client %d error: %v", i, err)
				}
			}

			if len(simFinal) == 0 || len(simFinal) != len(liveFinal) {
				t.Fatalf("weight vectors missing or mismatched: sim=%d live=%d", len(simFinal), len(liveFinal))
			}
			for i := range simFinal {
				if simFinal[i] != liveFinal[i] {
					t.Fatalf("%s: weight %d diverged between fabrics: sim=%v live=%v", c.name, i, simFinal[i], liveFinal[i])
				}
			}
		})
	}
}

// TestAdaptiveLRScaleOverTCP is the wire-level half of the adaptive-LR
// contract: a client receiving a non-unit LRScale in its push header must
// train bit-identically to an in-process fl.LocalClient handed the same
// fl.LocalConfig — the scale the engine computes is exactly the scale the
// remote optimizer applies. A raw codec keeps the comparison lossless.
func TestAdaptiveLRScaleOverTCP(t *testing.T) {
	lf := newLiveFederation(t, 1, 0, 91)
	seed := uint64(9)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(30 * time.Second))

	clientDone := make(chan error, 1)
	go func() {
		clientDone <- RunClient(ClientConfig{
			Addr: ln.Addr().String(), ID: 0, LatencyHintMs: 10,
			Data: lf.fed.Clients[0], Net: lf.factory(seed),
			Opt: opt.NewAdam(0.01), Codec: codec.Raw{}, Seed: seed,
		})
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	typ, _, err := ReadFrame(conn)
	if err != nil || typ != msgRegister {
		t.Fatalf("expected register, got type %d err %v", typ, err)
	}

	global := lf.factory(seed).WeightsCopy()
	push := func(scale float64) []float64 {
		t.Helper()
		msg, err := codec.MarshalModel(codec.Raw{}, lf.shapes, global)
		if err != nil {
			t.Fatal(err)
		}
		spec := PushSpec{Round: 0, Epochs: 1, Batch: 8, Lambda: 0.4, lrScale: scale}
		if err := WriteFrame(conn, MsgModelPush, ModelPush(spec, msg)); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := ReadFrame(conn)
		if err != nil || typ != MsgModelUpdate {
			t.Fatalf("expected model update, got type %d err %v", typ, err)
		}
		_, _, _, m, err := ParseModelUpdate(payload)
		if err != nil {
			t.Fatal(err)
		}
		_, w, err := codec.UnmarshalModel(m)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	wire := push(0.6)
	if err := WriteFrame(conn, msgShutdown, nil); err != nil {
		t.Fatal(err)
	}
	if cerr := <-clientDone; cerr != nil {
		t.Fatalf("client error: %v", cerr)
	}

	lc := fl.LocalConfig{Epochs: 1, BatchSize: 8, Lambda: 0.4, Round: 0, LRScale: 0.6}
	mirror := fl.NewLocalClient(0, lf.fed.Clients[0], lf.factory(seed), opt.NewAdam(0.01), seed)
	want, _ := mirror.TrainLocal(global, lc)
	if len(wire) != len(want) {
		t.Fatalf("weight vectors mismatched: wire=%d local=%d", len(wire), len(want))
	}
	for i := range want {
		if wire[i] != want[i] {
			t.Fatalf("weight %d diverged between wire and local scaled step: %v vs %v", i, wire[i], want[i])
		}
	}

	// The scale must genuinely change the step — otherwise the assertions
	// above would also pass with the header field dropped on the floor.
	lc.LRScale = 0
	unscaled := fl.NewLocalClient(0, lf.fed.Clients[0], lf.factory(seed), opt.NewAdam(0.01), seed)
	base, _ := unscaled.TrainLocal(global, lc)
	if !moved(base, wire) {
		t.Fatal("LRScale 0.6 trained identically to the unscaled step — the wire scale had no effect")
	}
}

// TestClientRejectsBatchZeroPush: a push that asks for mini-batches of size
// 0 would never advance local training's batch loop. The client must fail
// the push instead of spinning on it.
func TestClientRejectsBatchZeroPush(t *testing.T) {
	lf := newLiveFederation(t, 1, 0, 93)
	seed := uint64(9)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(30 * time.Second))

	clientDone := make(chan error, 1)
	go func() {
		clientDone <- RunClient(ClientConfig{
			Addr: ln.Addr().String(), ID: 0, LatencyHintMs: 10,
			Data: lf.fed.Clients[0], Net: lf.factory(seed),
			Opt: opt.NewAdam(0.01), Codec: codec.Raw{}, Seed: seed,
		})
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if typ, _, err := ReadFrame(conn); err != nil || typ != msgRegister {
		t.Fatalf("expected register, got type %d err %v", typ, err)
	}
	msg, err := codec.MarshalModel(codec.Raw{}, lf.shapes, lf.factory(seed).WeightsCopy())
	if err != nil {
		t.Fatal(err)
	}
	spec := PushSpec{Round: 0, Epochs: 1, Batch: 0, Lambda: 0.4}
	if err := WriteFrame(conn, MsgModelPush, ModelPush(spec, msg)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-clientDone:
		if err == nil {
			t.Fatal("client accepted a push with batch size 0")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client still busy 5s after a push with batch size 0")
	}
}

// ---------------------------------------------------------------------------
// Failure modes

// flakyClient registers properly, then misbehaves on the first push.
func flakyClient(t *testing.T, addr string, id uint32, respond func(conn net.Conn, payload []byte)) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Errorf("flaky client dial: %v", err)
		return
	}
	defer conn.Close()
	reg := register{clientID: id, numSamples: 50, latencyHintMs: 10}
	if err := WriteFrame(conn, msgRegister, reg.marshal()); err != nil {
		t.Errorf("flaky client register: %v", err)
		return
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil || typ != MsgModelPush {
		return // server may already be shutting down
	}
	respond(conn, payload)
}

// runWithFlaky deploys fedavg with clients 0,1 honest and client 2 driven
// by the given misbehavior, asserting the run completes without it. obs
// watch the server's event stream.
func runWithFlaky(t *testing.T, respond func(conn net.Conn, payload []byte), obs ...fl.Observer) {
	lf := newLiveFederation(t, 3, 0, 41)
	cfg := liveCfg(3)
	cfg.Rounds = 3
	cfg.ClientsPerRound = 3

	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 3, Method: fl.Methods["fedavg"], Run: cfg,
		Shapes: lf.shapes, W0: lf.factory(cfg.Seed).WeightsCopy(), Dataset: lf.fed.Name,
		Observers: obs,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	honestErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			honestErrs[i] = RunClient(ClientConfig{
				Addr: srv.Addr(), ID: uint32(i), LatencyHintMs: 10,
				Data: lf.fed.Clients[i], Net: lf.factory(cfg.Seed),
				Opt: opt.NewAdam(cfg.LearningRate), Seed: cfg.Seed,
			})
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		flakyClient(t, srv.Addr(), 2, respond)
	}()

	run, final, err := srv.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("server error: %v", err)
	}
	if run.GlobalRounds < cfg.Rounds {
		t.Fatalf("only %d global rounds completed after client failure", run.GlobalRounds)
	}
	if !moved(lf.factory(cfg.Seed).WeightsCopy(), final) {
		t.Fatal("global model never moved")
	}
	for i, err := range honestErrs {
		if err != nil {
			t.Fatalf("honest client %d error: %v", i, err)
		}
	}
}

// TestClientDisconnectMidRound: a selected client vanishes between the
// model push and its response. The round folds without it and training
// continues on the surviving population.
func TestClientDisconnectMidRound(t *testing.T) {
	runWithFlaky(t, func(conn net.Conn, _ []byte) {
		conn.Close() // hang up instead of answering the push
	})
}

// TestDecodeErrorOnPush: a client answers the push with an update whose
// model payload is garbage. The server drops it and the round folds with
// the remaining updates.
func TestDecodeErrorOnPush(t *testing.T) {
	runWithFlaky(t, func(conn net.Conn, payload []byte) {
		spec, _, err := parseModelPush(payload)
		if err != nil {
			return
		}
		WriteFrame(conn, MsgModelUpdate, ModelUpdate(2, 50, spec.Round, []byte{0xde, 0xad}))
	})
}

// TestUpdateInAnotherCodecDropsClient: the server folds only updates in the
// codec its push went out in (polyline 4 here). A top-k delta would decode
// as an absolute, mostly-zero model, and a coarser polyline as a model
// quantized off the run's channel; either way client 2 is dropped, every
// one of its rounds resolves as dropped, and the survivors finish the run.
func TestUpdateInAnotherCodecDropsClient(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec codec.Codec
	}{
		{"topk delta", codec.NewTopK(0.5)},
		{"polyline 3", codec.NewPolyline(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var kept, dropped int
			watch := fl.ObserverFunc(func(ev fl.Event) {
				if e, ok := ev.(fl.ClientDoneEvent); ok && e.Client == 2 {
					if e.Dropped {
						dropped++
					} else {
						kept++
					}
				}
			})
			runWithFlaky(t, func(conn net.Conn, payload []byte) {
				spec, pushed, err := parseModelPush(payload)
				if err != nil {
					return
				}
				shapes, ref, err := codec.UnmarshalModel(pushed)
				if err != nil {
					return
				}
				w := tensor.Copy(ref)
				for i := range w {
					w[i] += 0.01 * float64(i%7)
				}
				msg, _, err := edge.AppendUplink(nil, tc.codec, shapes, ref, w, nil)
				if err != nil {
					t.Error(err)
					return
				}
				WriteFrame(conn, MsgModelUpdate, ModelUpdate(2, 50, spec.Round, msg))
			}, watch)
			if kept != 0 || dropped == 0 {
				t.Fatalf("client 2 rounds: %d kept, %d dropped; want every one dropped", kept, dropped)
			}
		})
	}
}

// TestSilentPeerTimesOut: a client that accepts the model push and then
// goes silent — without closing its socket — must not stall the round
// forever. The round timeout drops it and training completes on the
// survivors.
func TestSilentPeerTimesOut(t *testing.T) {
	lf := newLiveFederation(t, 3, 0, 41)
	cfg := liveCfg(3)
	cfg.Rounds = 2
	cfg.ClientsPerRound = 3

	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 3, Method: fl.Methods["fedavg"], Run: cfg,
		Shapes: lf.shapes, W0: lf.factory(cfg.Seed).WeightsCopy(), Dataset: lf.fed.Name,
		RoundTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	honestErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			honestErrs[i] = RunClient(ClientConfig{
				Addr: srv.Addr(), ID: uint32(i), LatencyHintMs: 10,
				Data: lf.fed.Clients[i], Net: lf.factory(cfg.Seed),
				Opt: opt.NewAdam(cfg.LearningRate), Seed: cfg.Seed,
			})
		}(i)
	}
	silent := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		flakyClient(t, srv.Addr(), 2, func(net.Conn, []byte) {
			<-silent // hold the socket open, never answer
		})
	}()

	done := make(chan struct{})
	var run *metrics.Run
	var srvErr error
	go func() {
		run, _, srvErr = srv.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("silent peer stalled the server")
	}
	close(silent)
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server error: %v", srvErr)
	}
	if run.GlobalRounds < cfg.Rounds {
		t.Fatalf("only %d global rounds completed alongside a silent peer", run.GlobalRounds)
	}
	for i, err := range honestErrs {
		if err != nil {
			t.Fatalf("honest client %d error: %v", i, err)
		}
	}
}

// TestSilentRegistrantDoesNotStallFleet: a peer that connects ahead of the
// fleet and never sends its register holds the serial accept loop only for
// registerTimeout; it is then closed, and the real clients queued behind it
// register and finish the run.
func TestSilentRegistrantDoesNotStallFleet(t *testing.T) {
	const n = 3
	lf := newLiveFederation(t, n, 0, 43)
	cfg := liveCfg(3)
	cfg.Rounds = 2
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: n, Method: fl.Methods["fedavg"], Run: cfg,
		Shapes: lf.shapes, W0: lf.factory(cfg.Seed).WeightsCopy(), Dataset: lf.fed.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Dialled before anyone else, so it is first out of the accept queue.
	silent, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	var wg sync.WaitGroup
	clientErrs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientErrs[i] = RunClient(ClientConfig{
				Addr: srv.Addr(), ID: uint32(i), LatencyHintMs: 10,
				Data: lf.fed.Clients[i], Net: lf.factory(cfg.Seed),
				Opt: opt.NewAdam(cfg.LearningRate), Seed: cfg.Seed,
			})
		}(i)
	}
	done := make(chan struct{})
	var run *metrics.Run
	var srvErr error
	go func() {
		run, _, srvErr = srv.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(registerTimeout + 30*time.Second):
		t.Fatal("a silent connection stalled registration")
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server error: %v", srvErr)
	}
	if run.GlobalRounds < cfg.Rounds {
		t.Fatalf("only %d global rounds completed behind a silent registrant", run.GlobalRounds)
	}
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d error: %v", i, err)
		}
	}
	// The server hung up on the silent peer without ever writing to it.
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := silent.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("silent peer read (%d, %v), want the connection closed with nothing sent", n, err)
	}
}

// TestDuplicateClientIDFailsFast: two clients registering the same id is a
// fleet misconfiguration; the server errors out instead of waiting forever
// for a distinct id that will never arrive.
func TestDuplicateClientIDFailsFast(t *testing.T) {
	lf := newLiveFederation(t, 2, 0, 71)
	cfg := liveCfg(3)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 2, Method: fl.Methods["fedavg"], Run: cfg,
		Shapes: lf.shapes, W0: lf.factory(cfg.Seed).WeightsCopy(), Dataset: lf.fed.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := srv.Run()
		errc <- err
	}()
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		reg := register{clientID: 0, numSamples: 10, latencyHintMs: 10} // same id twice
		if err := WriteFrame(conn, msgRegister, reg.marshal()); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "duplicate client id") {
			t.Fatalf("Run returned %v, want duplicate-id error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung on a duplicate registration")
	}
}

// TestShutdownMidRun: Shutdown during training interrupts in-flight
// response reads, so Run returns promptly instead of stalling behind the
// round in progress; the partial run record comes back without error.
func TestShutdownMidRun(t *testing.T) {
	lf := newLiveFederation(t, 3, 0, 81)
	cfg := liveCfg(3)
	cfg.Rounds = 100000 // far more than can complete; Shutdown must end it

	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 3, Method: fl.Methods["fedavg"], Run: cfg,
		Shapes: lf.shapes, W0: lf.factory(cfg.Seed).WeightsCopy(), Dataset: lf.fed.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mid-round clients may be dropped by the interrupt; errors
			// here are expected and not asserted.
			RunClient(ClientConfig{
				Addr: srv.Addr(), ID: uint32(i), LatencyHintMs: 10,
				ArtificialDelay: 50 * time.Millisecond,
				Data:            lf.fed.Clients[i], Net: lf.factory(cfg.Seed),
				Opt: opt.NewAdam(cfg.LearningRate), Seed: cfg.Seed,
			})
		}(i)
	}
	type outcome struct {
		run *metrics.Run
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		run, _, err := srv.Run()
		done <- outcome{run, err}
	}()
	time.Sleep(300 * time.Millisecond) // let a few rounds fly
	srv.Shutdown()
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("server error after mid-run shutdown: %v", out.err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run did not return promptly after mid-run Shutdown")
	}
	wg.Wait()
}

// Registered reports how many clients have registered so far.
func (s *Server) Registered() int { return s.count() }

// TestShutdownWithRegisteredClients: the operator shuts the server down
// while registration is still open. Run returns an error that says so, and
// the already-registered clients receive a clean shutdown frame instead of
// hanging forever.
func TestShutdownWithRegisteredClients(t *testing.T) {
	lf := newLiveFederation(t, 3, 0, 51)
	cfg := liveCfg(3)

	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 3, Method: fl.Methods["fedavg"], Run: cfg,
		Shapes: lf.shapes, W0: lf.factory(cfg.Seed).WeightsCopy(), Dataset: lf.fed.Name,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	clientErrs := make([]error, 2)
	for i := 0; i < 2; i++ { // only 2 of the expected 3 ever show up
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientErrs[i] = RunClient(ClientConfig{
				Addr: srv.Addr(), ID: uint32(i), LatencyHintMs: 10,
				Data: lf.fed.Clients[i], Net: lf.factory(cfg.Seed),
				Opt: opt.NewAdam(cfg.LearningRate), Seed: cfg.Seed,
			})
		}(i)
	}

	errc := make(chan error, 1)
	go func() {
		_, _, err := srv.Run()
		errc <- err
	}()
	for i := 0; srv.Registered() < 2; i++ {
		if i > 500 {
			t.Fatal("clients never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv.Shutdown()

	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "shut down during registration") {
			t.Fatalf("Run returned %v, want shutdown-during-registration error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not return after Shutdown")
	}
	wg.Wait()
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("registered client %d did not shut down cleanly: %v", i, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Validation

func TestServerValidation(t *testing.T) {
	valid := fl.RunConfig{Rounds: 1, NumTiers: 1}
	if _, err := NewServer(ServerConfig{NumClients: 0, Run: valid, W0: []float64{1}}); err == nil {
		t.Fatal("zero clients accepted")
	}
	if _, err := NewServer(ServerConfig{NumClients: 2, Run: valid, Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("empty model accepted")
	}
	// A live deployment must not run engine defaults off a typo: rounds
	// and tiers are required explicitly, and tier-count mistakes fail
	// before any client connects.
	if _, err := NewServer(ServerConfig{NumClients: 2, Run: fl.RunConfig{NumTiers: 1}, W0: []float64{1}}); err == nil {
		t.Fatal("zero rounds accepted")
	}
	if _, err := NewServer(ServerConfig{NumClients: 2, Run: fl.RunConfig{Rounds: 1, NumTiers: 5}, W0: []float64{1}}); err == nil {
		t.Fatal("more tiers than clients accepted")
	}
	if _, err := NewServer(ServerConfig{NumClients: 2, Run: valid, W0: []float64{1}, RoundTimeout: -time.Second}); err == nil {
		t.Fatal("negative round timeout accepted")
	}
}

// TestEngineErrorSurfacesAndShutsDown: an engine-level composition failure
// (a selector without the capability its pacer needs) comes back through
// Server.Run as an error, and registered clients are still released
// cleanly instead of hanging.
func TestEngineErrorSurfacesAndShutsDown(t *testing.T) {
	lf := newLiveFederation(t, 2, 0, 61)
	cfg := liveCfg(3)

	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 2,
		// "all" is not a RoundSelector: sync pacing must reject it.
		Method: fl.Method{Name: "Broken", Select: "all", Pace: "sync", Update: "avg"},
		Run:    cfg,
		Shapes: lf.shapes, W0: lf.factory(cfg.Seed).WeightsCopy(), Dataset: lf.fed.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	clientErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientErrs[i] = RunClient(ClientConfig{
				Addr: srv.Addr(), ID: uint32(i), LatencyHintMs: 10,
				Data: lf.fed.Clients[i], Net: lf.factory(cfg.Seed),
				Opt: opt.NewAdam(cfg.LearningRate), Seed: cfg.Seed,
			})
		}(i)
	}
	_, _, err = srv.Run()
	wg.Wait()
	if err == nil {
		t.Fatal("invalid composition accepted by the live engine")
	}
	for i, cerr := range clientErrs {
		if cerr != nil {
			t.Fatalf("client %d not released cleanly after engine error: %v", i, cerr)
		}
	}
}

func TestClientValidation(t *testing.T) {
	if err := RunClient(ClientConfig{}); err == nil {
		t.Fatal("empty client config accepted")
	}
}

// TestLiveRetierFromMeasuredLatencies deploys FedAT with runtime re-tiering
// over loopback TCP where every client's registration latency hint is the
// OPPOSITE of its real speed: the hint-fast clients carry a large artificial
// delay and the hint-slow ones none. The engine must correct the one-shot
// hint partition from measured wall-clock response latencies — retier passes
// fire and clients migrate toward their true tiers.
func TestLiveRetierFromMeasuredLatencies(t *testing.T) {
	lf := newLiveFederation(t, 6, 0, 31)
	cfg := liveCfg(7)
	// Enough folds that the delayed tier is observed several times before
	// the budget runs out (the undelayed tier folds much faster).
	cfg.Rounds = 24
	cfg.ClientsPerRound = 3
	cfg.RetierEvery = 2

	var rec fl.Recorder // tallies the retier passes and their migrations
	srv, err := NewServer(ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: lf.n,
		Method:     fl.Methods["fedat"],
		Run:        cfg,
		Shapes:     lf.shapes,
		W0:         lf.factory(cfg.Seed).WeightsCopy(),
		Dataset:    lf.fed.Name,
		Observers:  []fl.Observer{&rec},
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
			// Hints claim 0..2 fast and 3..5 slow; reality is inverted:
			// the hint-fast half is 3x slower. Both halves carry real
			// delays so the quick tier cannot burn the whole fold budget
			// before the slow tier's first response is ever measured.
			hint, delay := uint32(10), 300*time.Millisecond
			if i >= lf.n/2 {
				hint, delay = 500, 100*time.Millisecond
			}
			clientErrs[i] = RunClient(ClientConfig{
				Addr: srv.Addr(), ID: uint32(i), LatencyHintMs: hint,
				ArtificialDelay: delay,
				Data:            lf.fed.Clients[i], Net: lf.factory(cfg.Seed),
				Opt: opt.NewAdam(cfg.LearningRate), Seed: cfg.Seed,
			})
		}(i)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := srv.Run()
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("server did not finish in time")
	}
	wg.Wait()
	if err != nil {
		t.Fatalf("server error: %v", err)
	}
	for i, cerr := range clientErrs {
		if cerr != nil {
			t.Fatalf("client %d error: %v", i, cerr)
		}
	}
	if rec.Retiers == 0 {
		t.Fatal("no retier pass fired on the live fabric")
	}
	if rec.TierMigrations == 0 {
		t.Fatal("measured latencies never overturned the inverted hints")
	}
}

// TestDialRetryConnectsToLateServer starts the client BEFORE the listener
// exists: the dial retry must bridge the gap (the smoke deployments start
// server and clients concurrently).
func TestDialRetryConnectsToLateServer(t *testing.T) {
	lf := newLiveFederation(t, 1, 0, 41)
	cfg := liveCfg(9)
	cfg.Rounds = 1
	cfg.ClientsPerRound = 1
	cfg.NumTiers = 1

	// Reserve an address, then release it so the client's first dials fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	clientDone := make(chan error, 1)
	go func() {
		clientDone <- RunClient(ClientConfig{
			Addr: addr, ID: 0, LatencyHintMs: 10,
			Data: lf.fed.Clients[0], Net: lf.factory(cfg.Seed),
			Opt: opt.NewAdam(cfg.LearningRate), Seed: cfg.Seed,
		})
	}()
	time.Sleep(300 * time.Millisecond) // client is now retrying
	srv, err := NewServer(ServerConfig{
		Addr:       addr,
		NumClients: 1,
		Method:     fl.Methods["fedavg"],
		Run:        cfg,
		Shapes:     lf.shapes,
		W0:         lf.factory(cfg.Seed).WeightsCopy(),
		Dataset:    lf.fed.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := srv.Run()
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("server did not finish in time")
	}
	if err != nil {
		t.Fatalf("server error: %v", err)
	}
	if cerr := <-clientDone; cerr != nil {
		t.Fatalf("client error: %v", cerr)
	}
}
