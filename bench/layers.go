package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/robust"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/tiering"
	"repro/internal/transport"
)

// traceFrac is the share of the update budget the traced run (and the two
// untraced runs around it that price the tracing) executes.
const traceFrac = 0.25

// probeDur is how long one layer probe repeats its operation (a variable so
// the tests can shorten it).
var probeDur = 30 * time.Millisecond

// probeBatches is how many equal batches of calls a probe times (a variable
// for the tests too). The host stalls a process for tens of milliseconds now
// and then, and one stall inside a probe's single timing once read
// codec.unmarshal_us at 14 times its value; the median batch does not see it.
var probeBatches = 5

// timeOp repeats fn in probeBatches batches of at least probeDur/probeBatches
// each and returns one call's time in the median batch and its mean heap
// allocations. The first call is a warm-up and is not counted.
func timeOp(fn func()) (ns, allocs float64) {
	fn()
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(t0)
	}
	n := 1
	for n < 1<<24 {
		d := batch(n)
		if d >= probeDur/time.Duration(probeBatches) {
			break
		}
		if d < probeDur/time.Duration(probeBatches)/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	per := make([]float64, probeBatches)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range per {
		per[i] = float64(batch(n)) / float64(n)
	}
	runtime.ReadMemStats(&m1)
	return quantile(per, 0.5), float64(m1.Mallocs-m0.Mallocs) / float64(n*probeBatches)
}

// usOp is timeOp in microseconds, for probes that report no allocations.
func usOp(fn func()) float64 {
	ns, _ := timeOp(fn)
	return ns / 1e3
}

// measureLayers is the traced run of a workload plus the layer probes: it
// reports every per-layer metric and never an end-to-end one.
func measureLayers(sp *spec, w *workload, seed uint64, scale float64, outDir string) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	in, _, err := setUp(w, seed, scale, 1, res)
	if err != nil {
		return nil, err
	}
	rounds := w.rounds(scale * traceFrac)

	// Untraced, traced, untraced: the two outer runs give the workload's
	// times without the tracer, and their mean cancels a linear drift of the
	// host when it prices the tracing. The price is read off the median
	// update gap, which a collector pause or a burst of interference in one
	// of the three short runs does not move.
	var plain struct {
		wall, cpu  float64
		folds      int
		clientErrs int
		gapsMs     []float64
		medians    []float64
	}
	untraced := func() error {
		m := &meter{}
		cpu0, _ := usage()
		t0 := time.Now()
		_, _, errs, err := in.run(rounds, nil, m)
		plain.wall += time.Since(t0).Seconds()
		plain.clientErrs += errs
		cpu1, _ := usage()
		plain.cpu += cpu1 - cpu0
		plain.folds += m.folds
		plain.gapsMs = append(plain.gapsMs, m.gapsMs...)
		plain.medians = append(plain.medians, quantile(m.gapsMs, 0.5))
		return err
	}
	if err := untraced(); err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	tr, m := newTracer(fmt.Sprintf("%s/%d", w.name, seed)), &meter{}
	cpu0, _ := usage()
	t0 := time.Now()
	var (
		final      []float64
		clientErrs int
	)
	if w.kind == liveTCP {
		_, final, clientErrs, err = in.run(rounds, nil, m, tr) // the tracer listens
	} else {
		_, final, clientErrs, err = in.run(rounds, tr, m) // the tracer wraps the fabric
	}
	wall := time.Since(t0).Seconds()
	cpu1, _ := usage()
	cpu := cpu1 - cpu0
	tr.closeRoot(1e3 * wall)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if err := untraced(); err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	if clientErrs+plain.clientErrs > 0 {
		res.fail("%d live clients ended a run with an error", clientErrs+plain.clientErrs)
	}
	if m.folds < rounds || len(m.evals) == 0 {
		res.fail("traced run made %d folds and %d evaluations, budget %d", m.folds, len(m.evals), rounds)
		return res, nil
	}
	if err := tr.writeFile(outDir, w.name); err != nil {
		return nil, err
	}

	v := map[string]float64{}
	v["trace.overhead_frac"] = quantile(m.gapsMs, 0.5)/((plain.medians[0]+plain.medians[1])/2) - 1

	// The times a user of the system sees, from the two untraced runs.
	v["fl.updates_per_s"] = float64(plain.folds) / plain.wall
	v["fl.cpu_ms_per_update"] = 1e3 * plain.cpu / float64(plain.folds)
	v["fl.update_ms_p50"] = quantile(plain.gapsMs, 0.5)
	v["fl.update_ms_p90"] = quantile(plain.gapsMs, 0.9)
	v["fl.update_ms_p99"] = quantile(plain.gapsMs, 0.99)

	// What the traced run itself shows.
	sh := shares(tr.spans)
	v["fl.eval_share"] = sh["fl.evaluate"]
	v["fl.partition_ms"] = sum(durations(tr.spans, "fl.partition"))
	dispatchCalls := float64(len(durations(tr.spans, "fl.dispatch")))
	if w.kind == liveTCP {
		// No fabric wrapper on the live path: a dispatch is a round the
		// observer saw start, and its share is the time a round was in flight.
		dispatchCalls = float64(m.dispatches)
		v["fl.dispatch_share"] = sh["fl.round"] + sh["transport.push_to_arrival"] + sh["transport.arrival_to_fold"]
		v["transport.push_to_arrival_ms_p50"] = quantile(durations(tr.spans, "transport.push_to_arrival"), 0.5)
		v["transport.arrival_to_fold_ms_p50"] = quantile(durations(tr.spans, "transport.arrival_to_fold"), 0.5)
	} else {
		v["fl.dispatch_share"] = sh["fl.dispatch"]
	}
	v["fl.engine_share"] = sh["engine"] + sh["fl.partition"] + sh["fl.probe"]
	v["fl.dispatch_calls"] = dispatchCalls
	v["fl.cohort_mean"] = float64(m.clientDone) / dispatchCalls
	// The paper's Table 2 number. A traced run is a quarter of the budget and
	// the targets sit well inside that; a test-sized run that stops short
	// reports the uplink it did use.
	toTarget, reached := upToTarget(m.evals, w.targetAcc)
	if !reached {
		toTarget = float64(m.evals[len(m.evals)-1].up)
		if scale >= 1 {
			res.fail("traced run did not reach target accuracy %.2f", w.targetAcc)
		}
	}
	v["fl.up_mb_to_target"] = toTarget / 1e6
	if w.kind != liveTCP {
		last := m.evals[len(m.evals)-1]
		v["simnet.virt_s_per_update"] = last.virtual / float64(last.round)
	}

	probeLayers(in, final, v)

	// Estimated shares: a probe's time per call × its calls in the traced
	// run ÷ the run's CPU time.
	cpuUs := 1e6 * cpu
	clientRounds, uplinks, folds := float64(m.clientDone), float64(m.clientDone-m.dropped), float64(m.folds)
	v["fl.train_local_share"] = v["fl.train_local_us"] * clientRounds / cpuUs
	_, verbatim := in.cfg.Codec.(codec.Verbatim)
	if w.kind == liveTCP {
		frames := clientRounds + uplinks // every frame is written once and read once
		v["codec.share"] = (v["codec.marshal_us"]*(dispatchCalls+uplinks) + v["codec.unmarshal_us"]*(clientRounds+uplinks)) / cpuUs
		v["transport.share"] = ((v["transport.write_frame_us"]+v["transport.read_frame_us"])*frames +
			v["transport.push_build_us"]*dispatchCalls + v["transport.parse_update_us"]*uplinks) / cpuUs
	} else {
		v["fl.transmit_share"] = v["fl.transmit_us"] * (clientRounds + uplinks) / cpuUs
		if !verbatim { // a verbatim codec never encodes on the simulated channel
			v["codec.share"] = (v["codec.encode_us"] + v["codec.decode_us"]) * (clientRounds + uplinks) / cpuUs
		}
	}
	if w.robust {
		v["robust.fold_share"] = v["robust.median_us"] * folds / cpuUs
	} else {
		v["core.fold_share"] = v["core.fold_us"] * folds / cpuUs
	}
	if w.kind == simLazy {
		evalShards := float64(len(m.evals) * min(fl.DefaultEvalSample, w.clients))
		v["dataset.shard_share"] = v["dataset.shard_us"] * (clientRounds + evalShards) / cpuUs
	}

	res.Attempted = m.clientDone
	res.Failed = clientErrs
	for _, p := range m.evals {
		res.notes = append(res.notes, fmt.Sprintf("eval at update %6d  acc %.4f  up %9.3f MB", p.round, p.acc, float64(p.up)/1e6))
	}
	res.fill(sp.PerLayer, v, true)
	return res, nil
}

// sum adds up xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// probeLayers replays each layer's public entry points at the workload's
// model, cohort and batch shapes. trained is the traced run's final model, so
// value-dependent costs (polyline's varint lengths) are the run's own.
func probeLayers(in *instance, trained []float64, v map[string]float64) {
	w, cfg := in.w, in.cfg
	dim := len(trained)
	other := perturbed(trained, 1)
	grad := perturbed(trained, 2)

	// tensor: GEMMs at the shape of the model's widest product, the first
	// convolution's im2col, and the vector kernels over the whole model.
	gm, gk, gn := cfg.BatchSize, in.inDim, w.hidden
	if w.hidden == 0 {
		gm, gk, gn = 16, 72, 100 // the CNN's second convolution: W[16×72]·cols[72×100]
	}
	flops := 2 * float64(gm*gk*gn)
	a, b, dst := randMat(gm, gk, 3), randMat(gk, gn, 4), tensor.NewMat(gm, gn)
	v["tensor.gemm_gflops"] = flops / first(timeOp(func() { tensor.MulInto(dst, a, b) }))
	at := randMat(gk, gm, 5)
	v["tensor.gemm_ta_gflops"] = flops / first(timeOp(func() { tensor.MulTransAInto(dst, at, b) }))
	bt := randMat(gn, gk, 6)
	v["tensor.gemm_tb_gflops"] = flops / first(timeOp(func() { tensor.MulTransBInto(dst, a, bt) }))
	img, cols := in.shards[0].TrainX.Row(0), tensor.NewMat(9, 100)
	v["tensor.im2col_us"] = usOp(func() { tensor.Im2Col(img, 1, 10, 10, 3, 3, 1, 1, cols) })
	y := tensor.Copy(other)
	v["tensor.axpy_gbps"] = 24 * float64(dim) / first(timeOp(func() { tensor.Axpy(1e-9, trained, y) }))
	pool := tensor.NewPool(dim)
	v["tensor.pool_getput_ns"] = first(timeOp(func() { pool.Put(pool.Get()) }))

	// opt
	adam, wv := opt.NewAdam(cfg.LearningRate), tensor.Copy(trained)
	v["opt.adam_step_us"] = usOp(func() { adam.Step(wv, grad) })
	g2 := tensor.Copy(grad)
	v["opt.proximal_us"] = usOp(func() { opt.AddProximal(g2, trained, other, fl.DefaultLambda) })

	// nn: one mini-batch at the workload's batch size.
	net, shard := in.factory(in.seed), in.shards[0]
	bs := min(cfg.BatchSize, shard.NumTrain())
	bx := tensor.MatFrom(bs, in.inDim, shard.TrainX.Data[:bs*in.inDim])
	by := shard.TrainY[:bs]
	v["nn.forward_us"] = usOp(func() { net.Forward(bx, true) })
	ns, allocs := timeOp(func() { net.ZeroGrad(); net.Backprop(bx, by) })
	v["nn.backprop_us"], v["nn.allocs_per_batch"] = ns/1e3, allocs

	// fl: local training (a mean over probeShards unequal clients), the
	// simulated channel, evaluation.
	lambda := 0.0
	if in.method.Local.Prox {
		lambda = fl.DefaultLambda
	}
	lc := fl.LocalConfig{Epochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, Lambda: lambda}
	clients := make([]*fl.Client, len(in.shards))
	for i, d := range in.shards {
		clients[i] = fl.NewLocalClient(i, d, in.factory(in.seed), opt.NewAdam(cfg.LearningRate), in.seed)
	}
	next := 0
	trainAll := func() { // one call trains every probe client once
		lc.Round = uint64(next)
		next++
		for _, c := range clients {
			c.TrainLocal(trained, lc)
		}
	}
	ns, allocs = timeOp(trainAll)
	k := float64(len(clients))
	v["fl.train_local_us"], v["fl.train_local_allocs"] = ns/1e3/k, allocs/k

	// parallel: one cohort's local training at GOMAXPROCS 1 against the
	// default, through the same parallel.Dynamic call the simulated dispatch
	// makes. A workload that dispatches one client at a time reads 1.
	cohort := clients[:min(w.cohort, len(clients))]
	trainCohort := func() {
		parallel.Dynamic(len(cohort), parallel.Workers(len(cohort)), func(i int) { cohort[i].TrainLocal(trained, lc) })
	}
	procs := runtime.GOMAXPROCS(1)
	serial := first(timeOp(trainCohort))
	runtime.GOMAXPROCS(procs)
	v["parallel.speedup_nproc"] = serial / first(timeOp(trainCohort))

	comm := fl.NewComm(cfg.Codec, in.shapes)
	ns, allocs = timeOp(func() {
		got, _, err := comm.TransmitPooled(trained, true)
		if err != nil {
			panic(err) // the codec failed to decode its own payload
		}
		comm.Release(got)
	})
	v["fl.transmit_us"], v["fl.transmit_allocs"] = ns/1e3, allocs
	evaluate := in.evaluator()
	v["fl.evaluate_ms"] = usOp(func() { evaluate(trained) }) / 1e3

	// codec
	var payload []byte
	ns, allocs = timeOp(func() { payload = cfg.Codec.Encode(trained) })
	v["codec.encode_us"], v["codec.encode_allocs"] = ns/1e3, allocs
	v["codec.bytes_per_param"] = float64(len(payload)) / float64(dim)
	decoded := make([]float64, dim)
	v["codec.decode_us"] = usOp(func() { must(cfg.Codec.Decode(payload, decoded)) })
	var msg []byte
	v["codec.marshal_us"] = usOp(func() {
		var err error
		msg, err = codec.MarshalModel(cfg.Codec, in.shapes, trained)
		must(err)
	})
	v["codec.unmarshal_us"] = usOp(func() {
		_, _, err := codec.UnmarshalModel(msg)
		must(err)
	})

	// core and robust: one fold of foldK updates of the model's dimension.
	updates := make([]core.ClientUpdate, w.foldK)
	vecs := make([][]float64, max(w.foldK, 4)) // Krum and the trimmed mean need a real cohort
	for i := range vecs {
		vecs[i] = perturbed(trained, uint64(10+i))
		if i < len(updates) {
			updates[i] = core.ClientUpdate{Weights: vecs[i], N: 20, Client: i}
		}
	}
	agg, err := core.NewAggregator(cfg.NumTiers, in.w0, true)
	must(err)
	tier := 0
	ns, allocs = timeOp(func() {
		_, err := agg.UpdateTierRef(tier%cfg.NumTiers, updates)
		must(err)
		tier++
	})
	v["core.fold_us"], v["core.fold_allocs"] = ns/1e3, allocs
	var fs robust.FoldScratch
	out := make([]float64, dim)
	v["robust.median_us"] = usOp(func() { must(fs.Median(out, vecs)) })
	v["robust.trimmed_us"] = usOp(func() { must(fs.TrimmedMean(out, vecs, 0.2)) })
	v["robust.krum_us"] = usOp(func() {
		_, err := fs.Krum(out, vecs, 0)
		must(err)
	})

	// simnet: the event loop, a shared link, and the lazy population at the
	// workload's population size.
	const events = 1 << 14
	ns, _ = timeOp(func() {
		s := simnet.New()
		for i := 0; i < events; i++ {
			s.At(float64(i%977), func() {})
		}
		s.Run()
	})
	v["simnet.events_per_s"] = events / (ns / 1e9)
	link, linkAt := &simnet.Link{Bandwidth: 16 << 20}, 0.0
	v["simnet.link_transfer_ns"] = first(timeOp(func() {
		linkAt = link.Transfer(linkAt, 1<<10)
		if link.Reservations() > 256 {
			link.Reset() // a run's links hold tens of reservations, not millions
		}
	}))
	var pop *simnet.Population
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pop, err = simnet.NewPopulation(in.ccfg)
	must(err)
	runtime.ReadMemStats(&m1)
	v["simnet.bytes_per_client"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(w.clients)
	v["simnet.population_new_ms"] = usOp(func() {
		_, err := simnet.NewPopulation(in.ccfg)
		must(err)
	}) / 1e3
	fresh, id := pop, 0
	v["simnet.materialize_us"] = usOp(func() {
		if id == w.clients {
			// Touched runtimes stay cached for a population's lifetime; a new
			// population keeps this a measure of first touches, the cost a
			// dispatch of new clients pays.
			fresh, err = simnet.NewPopulation(in.ccfg)
			must(err)
			id = 0
		}
		fresh.Materialize(id)
		id++
	})

	// dataset: one shard on demand, and the whole set-up-time generation
	// (the eager federation, or the lazy source's tables).
	dcfg := in.dcfg
	src, err := dataset.NewSource(dcfg)
	must(err)
	next = 0
	v["dataset.shard_us"] = usOp(func() { src.Client(next % w.clients); next++ })
	v["dataset.generate_ms"] = usOp(func() {
		if w.kind == simLazy {
			_, err = dataset.NewSource(dcfg)
		} else {
			_, err = dataset.Generate(dcfg)
		}
		must(err)
	}) / 1e3

	// tiering: profile-time partition and one runtime retier pass over the
	// whole population.
	lat := make([]float64, w.clients)
	for i := range lat {
		lat[i] = pop.ExpectedLatency(i, lc.Steps(20))
	}
	tiers, err := tiering.Partition(lat, cfg.NumTiers)
	must(err)
	v["tiering.partition_us"] = usOp(func() {
		_, err := tiering.Partition(lat, cfg.NumTiers)
		must(err)
	})
	v["tiering.retier_us"] = usOp(func() {
		_, _, err := tiering.Retier(lat, tiers, tiering.RetierOpts{})
		must(err)
	})

	// transport: framing of this model's push and update messages, and one
	// small frame's round trip over a loopback TCP connection.
	spec := transport.PushSpec{Round: 1, Epochs: cfg.LocalEpochs, Batch: cfg.BatchSize, Lambda: lambda}
	var push []byte
	v["transport.push_build_us"] = usOp(func() { push = transport.ModelPush(spec, msg) })
	update := transport.ModelUpdate(1, 20, 1, msg)
	v["transport.parse_update_us"] = usOp(func() {
		_, _, _, _, err := transport.ParseModelUpdate(update)
		must(err)
	})
	v["transport.write_frame_us"] = usOp(func() { must(transport.WriteFrame(io.Discard, transport.MsgModelPush, push)) })
	var frame bytes.Buffer
	must(transport.WriteFrame(&frame, transport.MsgModelPush, push))
	rd := bytes.NewReader(frame.Bytes())
	ns, allocs = timeOp(func() {
		rd.Reset(frame.Bytes())
		_, _, err := transport.ReadFrame(rd)
		must(err)
	})
	v["transport.read_frame_us"], v["transport.read_frame_allocs"] = ns/1e3, allocs
	v["transport.loopback_rtt_us"] = loopbackRTTus()

	// edge: recorded so a later edge workload has a baseline.
	cloud, err := edge.NewCloud(edge.CloudConfig{
		Edges: 2, Fold: edge.FoldAsync, W0: in.w0, Shapes: in.shapes, TopKFrac: 0.1,
	})
	must(err)
	e := 0
	v["edge.cloud_push_us"] = usOp(func() { cloud.Push(e%2, trained, float64(e)); e++ })
	topk := codec.NewTopK(0.1)
	var up []byte
	v["edge.encode_uplink_us"] = usOp(func() {
		up, err = edge.EncodeUplink(topk, in.shapes, other, trained)
		must(err)
	})
	ref := tensor.Copy(other)
	v["edge.decode_uplink_us"] = usOp(func() {
		copy(ref, other)
		_, err := edge.DecodeUplink(up, ref)
		must(err)
	})
}

func first(a, _ float64) float64 { return a }

// must panics on an error no probe input can cause: every probe feeds a
// layer its own well-formed output.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: layer probe: %v", err))
	}
}

// perturbed returns w plus small deterministic noise, a stand-in for another
// client's model or a gradient of the same scale.
func perturbed(w []float64, label uint64) []float64 {
	out := make([]float64, len(w))
	x := label*0x9E3779B97F4A7C15 + 1
	for i, v := range w {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = v + 1e-3*(float64(x>>11)/(1<<53)-0.5)
	}
	return out
}

func randMat(r, c int, label uint64) *tensor.Mat {
	return tensor.MatFrom(r, c, perturbed(make([]float64, r*c), label))
}

// evaluator returns the workload's evaluation harness as a function: the
// simulated fabric's (full population, or the lazy sample), or the live
// server's mirror over the generated shards.
func (in *instance) evaluator() func(w []float64) {
	if in.w.kind == liveTCP {
		ev := fl.NewDataEvaluator(in.factory, in.seed, in.evalShards)
		return func(w []float64) { ev.Evaluate(w) }
	}
	fab := in.fabric()
	return func(w []float64) { fab.Evaluate(w) }
}

// loopbackRTTus times one small frame's round trip over a loopback TCP
// connection to an echoing goroutine, which ends when the connection closes.
func loopbackRTTus() float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			typ, p, err := transport.ReadFrame(conn)
			if err != nil {
				return
			}
			if transport.WriteFrame(conn, typ, p) != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	must(err)
	ping := make([]byte, 64)
	us := usOp(func() {
		must(transport.WriteFrame(conn, transport.MsgModelUpdate, ping))
		_, _, err := transport.ReadFrame(conn)
		must(err)
	})
	conn.Close()
	<-done
	return us
}
