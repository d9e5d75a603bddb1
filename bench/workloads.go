package main

import (
	"fmt"
	"sync"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// refSeconds is the run length the update budgets below were sized for on
// the 2-vCPU reference box; BENCHMARK.json's run_seconds repeats it. A run
// asked for another -seconds scales every budget linearly, so the amount of
// work depends on (workload, seconds) alone and never on measured speed.
const refSeconds = 12

// fabricKind says which execution substrate a workload drives.
type fabricKind int

const (
	simEager fabricKind = iota // fl.Env over a materialized simnet.Cluster
	simLazy                    // fl.LazyEnv over simnet.Population + dataset.Source
	liveTCP                    // transport.Server + transport.RunClient over loopback
)

// workload is one row of the benchmark's workload table. Everything a run
// does follows from this row and the seed.
type workload struct {
	name string
	why  string
	kind fabricKind

	// budget is the number of global updates (TierFoldEvents) in the timed
	// section at refSeconds, sized once by calibration (see README.md).
	budget int
	// targetAcc is the accuracy every full-length run must reach and
	// fl.up_mb_to_target waits for, frozen at calibration time; it never
	// follows the seed.
	targetAcc float64

	clients          int
	samples          int // mean samples per client, 80 % of them for training
	classesPerClient int // the non-IID knob; 0 = IID
	hidden           int // MLP hidden width; 0 selects the three-convolution CNN
	method           func() (fl.Method, error)
	run              fl.RunConfig // Rounds and Seed are filled per run
	cohort           int          // client rounds per Dispatch
	foldK            int          // client updates per fold
	robust           bool         // folds through robust.FoldScratch.Median
}

func registry(name string) func() (fl.Method, error) {
	return func() (fl.Method, error) { return fl.Lookup(name) }
}

// workloads is the benchmark's workload table, in the round-robin order the
// runner visits them.
var workloads = []*workload{
	{
		name: "fedat_mlp_sim",
		why:  "the paper's system as fedsim -preset medium users run it: balanced across training, polyline transmit, fold and eval",
		kind: simEager, budget: 2676, targetAcc: 0.70,
		clients: 100, samples: 60, classesPerClient: 2, hidden: 32,
		method: registry("fedat"),
		run: fl.RunConfig{
			ClientsPerRound: 10, LocalEpochs: 3, BatchSize: 10, NumTiers: 5,
			LearningRate: 0.005, Codec: codec.NewPolyline(4), EvalEvery: 25,
		},
		cohort: 10, foldK: 10,
	},
	{
		name: "fedavg_cnn_sim",
		why:  "kernel-bound: SmallCNN im2col/GEMM, conv backprop and Adam across both cores; raw codec bypasses encode/decode",
		kind: simEager, budget: 391, targetAcc: 0.50,
		clients: 40, samples: 20, classesPerClient: 0, hidden: 0,
		method: registry("fedavg"),
		run: fl.RunConfig{
			ClientsPerRound: 6, LocalEpochs: 1, BatchSize: 10, NumTiers: 5,
			LearningRate: 0.001, Codec: codec.Raw{}, EvalEvery: 10,
		},
		cohort: 6, foldK: 6,
	},
	{
		name: "fedbuff_wide_sim",
		why:  "wide MLP-512, one local step per arrival: polyline transmit and the 10x57k coordinate-median fold dominate, dispatch is serial",
		kind: simEager, budget: 246, targetAcc: 0.30,
		clients: 60, samples: 24, classesPerClient: 0, hidden: 512,
		method: func() (fl.Method, error) {
			return fl.Compose("fedasync", "", "fedbuff", "median", "FedBuff-median")
		},
		run: fl.RunConfig{
			ClientsPerRound: 10, BufferK: 10, LocalEpochs: 1, BatchSize: 32, NumTiers: 5,
			LearningRate: 0.001, Codec: codec.NewPolyline(4), EvalEvery: 5,
		},
		cohort: 1, foldK: 10, robust: true,
	},
	{
		name: "fedat_pop1m_sim",
		why:  "same engine through the lazy fabric at 1,000,000 clients: per-dispatch materialisation, shard synthesis, sampled evaluator",
		kind: simLazy, budget: 901, targetAcc: 0.30,
		clients: 1_000_000, samples: 24, classesPerClient: 2, hidden: 32,
		method: registry("fedat"),
		run: fl.RunConfig{
			ClientsPerRound: 10, LocalEpochs: 1, BatchSize: 10, NumTiers: 5,
			LearningRate: 0.01, Codec: codec.NewPolyline(4), EvalEvery: 50,
		},
		cohort: 10, foldK: 10,
	},
	{
		name: "fedat_wide_live",
		why:  "the only workload over real TCP: framing, MarshalModel/UnmarshalModel, per-frame allocation, collectors and the wall clock",
		kind: liveTCP, budget: 5201, targetAcc: 0.50,
		clients: 8, samples: 30, classesPerClient: 0, hidden: 256,
		method: registry("fedat"),
		run: fl.RunConfig{
			ClientsPerRound: 2, LocalEpochs: 1, BatchSize: 16, NumTiers: 2,
			LearningRate: 0.001, Codec: codec.NewPolyline(4), EvalEvery: 25,
		},
		cohort: 2, foldK: 2,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rounds converts the budget at the given scale (1 = refSeconds) into a
// global-update count of the form 1 + k·EvalEvery: the engine evaluates at
// updates 1, 1+E, 1+2E, …, so the last update of every run is evaluated and
// final_acc and the UpBytes check read the finished model.
func (w *workload) rounds(scale float64) int {
	e := w.run.EvalEvery
	k := int(float64(w.budget-1)*scale/float64(e) + 0.5)
	if k < 1 {
		k = 1
	}
	return 1 + k*e
}

// data is the workload's dataset for n clients: dataset.FashionLike's
// generator (10 classes of 1×10×10 prototype images, signal 0.34, noise 1)
// at the workload's sizes. The lazy workload's is, apart from its name, the
// scalelike config of experiments/scale.go.
func (w *workload) data(n int, seed uint64) dataset.Config {
	return dataset.Config{
		Name: "fashionlike", NumClients: n, Classes: 10, SamplesPerClient: w.samples,
		ClassesPerClient: w.classesPerClient, Seed: seed,
		ImgC: 1, ImgH: 10, ImgW: 10, Signal: 0.34, Noise: 1.0,
	}
}

// instance is one set-up of a workload for one seed: inputs generated, the
// environment (or the live deployment's ingredients) built, ready to run any
// number of update budgets under identical conditions.
type instance struct {
	w       *workload
	seed    uint64
	method  fl.Method
	cfg     fl.RunConfig
	factory fl.ModelFactory
	shapes  []codec.ShapeInfo
	w0      []float64
	inDim   int
	shards  []*dataset.ClientData // a few client shards, for the layer probes
	dcfg    dataset.Config        // the generated federation
	ccfg    simnet.ClusterConfig  // simulated population (sim only)

	fed        *dataset.Federated    // eager and live
	evalShards []*dataset.ClientData // live only: the server-side evaluation mirror
	fabric     func() fl.Fabric      // sim only: a fresh fabric over the environment
	reset      func()                // sim only: rewind links, delay streams, optimizers
}

// build is the workload's set-up: generate the dataset and the simulated
// population from the seed and wire the environment. Dataset, population and
// method all derive from the one seed.
func (w *workload) build(seed uint64) (*instance, error) {
	m, err := w.method()
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, seed: seed, method: m, cfg: w.run}
	in.cfg.Seed = seed
	in.ccfg = simnet.ClusterConfig{
		NumClients: w.clients, NumUnstable: w.clients / 10, DropHorizon: 20000,
		SecPerBatch: 1.0, UpBW: 1 << 20, DownBW: 1 << 20, ServerBW: 16 << 20,
		Seed: seed,
	}

	in.dcfg = w.data(w.clients, seed)
	if w.kind != simLazy {
		if in.fed, err = dataset.Generate(in.dcfg); err != nil {
			return nil, err
		}
	}
	imgC, imgH, imgW, classes := in.dcfg.ImgC, in.dcfg.ImgH, in.dcfg.ImgW, in.dcfg.Classes
	in.inDim = imgC * imgH * imgW
	inDim, hidden := in.inDim, w.hidden
	if hidden > 0 {
		in.factory = func(s uint64) *nn.Network { return nn.NewMLP(rng.New(s), inDim, hidden, classes) }
	} else {
		in.factory = func(s uint64) *nn.Network {
			// SmallCNN's three convolutions without its pooling: the synthetic
			// 10×10 images have no spatial redundancy, and pooled down to 1×1
			// the model stays near chance, where accuracy is all sampling noise.
			c := nn.SmallCNN(imgC, imgH, imgW, classes)
			c.PoolEvery = 0
			return nn.NewCNN(rng.New(s), c)
		}
	}
	ref := in.factory(seed)
	for _, s := range ref.ParamShapes() {
		in.shapes = append(in.shapes, codec.ShapeInfo{Name: s.Name, Dims: s.Dims})
	}
	in.w0 = ref.WeightsCopy()

	switch w.kind {
	case simEager:
		cluster, err := simnet.NewCluster(in.ccfg)
		if err != nil {
			return nil, err
		}
		env, err := fl.NewEnv(in.fed, cluster, in.factory, in.cfg)
		if err != nil {
			return nil, err
		}
		in.fabric, in.reset = env.Fabric, env.ResetState
		in.shards = in.fed.Clients[:probeShards]
	case simLazy:
		src, err := dataset.NewSource(in.dcfg)
		if err != nil {
			return nil, err
		}
		pop, err := simnet.NewPopulation(in.ccfg)
		if err != nil {
			return nil, err
		}
		env, err := fl.NewLazyEnv(src, pop, in.factory, in.cfg)
		if err != nil {
			return nil, err
		}
		in.fabric, in.reset = env.Fabric, env.ResetState
		for i := 0; i < probeShards; i++ {
			in.shards = append(in.shards, src.Client(i))
		}
	case liveTCP:
		in.shards = in.fed.Clients[:probeShards]
		// The server evaluates against a mirror of a larger federation drawn
		// from the same seed (same class prototypes): eight clients hold 40
		// held-out samples between them, too few for an accuracy that repeats.
		mirror, err := dataset.Generate(w.data(liveEvalClients, seed))
		if err != nil {
			return nil, err
		}
		in.evalShards = mirror.Clients
	}
	return in, nil
}

// probeShards is how many client shards the layer probes cycle through, so a
// per-client time is a mean over unequal local dataset sizes.
const probeShards = 8

// run executes the instance's method for the given global-update budget and
// returns the run record, the final global model and the number of live
// clients that ended with an error. tr, when set, wraps the simulated fabric
// with the benchmark's tracing fabric; obs subscribe to the event stream.
func (in *instance) run(rounds int, tr *tracer, obs ...fl.Observer) (*metrics.Run, []float64, int, error) {
	cfg := in.cfg
	cfg.Rounds = rounds
	if in.w.kind == liveTCP {
		return in.runLive(cfg, obs)
	}
	in.reset()
	fab := in.fabric()
	if tr != nil {
		fab = tr.wrap(fab)
	}
	last := &lastGlobal{}
	run, err := in.method.RunOn(fab, cfg, append(obs, last)...)
	if err != nil {
		return nil, nil, 0, err
	}
	// Copied only now: the engine may reuse the event's buffer on the next
	// fold, and there is no next fold.
	return run, append([]float64(nil), last.w...), 0, nil
}

// lastGlobal remembers the global model of the most recent fold.
type lastGlobal struct{ w []float64 }

func (l *lastGlobal) OnEvent(ev fl.Event) {
	if f, ok := ev.(fl.TierFoldEvent); ok {
		l.w = f.Global
	}
}

// liveEvalClients is the size of the federation the live server's evaluation
// mirror is generated from.
const liveEvalClients = 100

// liveHintMs are the two registration latency hints that split the live
// clients into a fast and a slow tier.
var liveHintMs = [2]uint32{50, 350}

// runLive deploys the workload over loopback TCP inside this process: one
// transport.Server and one transport.RunClient goroutine per client, the
// same code path as cmd/fedserver and cmd/fedclient. Closed loop: each tier
// loop pushes its next cohort only after folding the previous one, so at
// most NumTiers × ClientsPerRound client rounds are in flight.
func (in *instance) runLive(cfg fl.RunConfig, obs []fl.Observer) (*metrics.Run, []float64, int, error) {
	srv, err := transport.NewServer(transport.ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: in.w.clients,
		Method:     in.method,
		Run:        cfg,
		Shapes:     in.shapes,
		W0:         in.w0,
		Dataset:    in.fed.Name,
		Eval:       fl.NewDataEvaluator(in.factory, in.seed, in.evalShards),
		Observers:  obs,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	errs := make([]error, in.w.clients)
	var wg sync.WaitGroup
	for i := 0; i < in.w.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = transport.RunClient(transport.ClientConfig{
				Addr:          srv.Addr(),
				ID:            uint32(i),
				LatencyHintMs: liveHintMs[i*len(liveHintMs)/in.w.clients],
				Data:          in.fed.Clients[i],
				Net:           in.factory(in.seed),
				Opt:           opt.NewAdam(cfg.LearningRate),
				Codec:         cfg.Codec,
				Seed:          in.seed,
			})
		}(i)
	}
	run, final, err := srv.Run()
	wg.Wait() // Run sent every client a shutdown frame; all loops have ended
	if err != nil {
		return nil, nil, 0, err
	}
	failed := 0
	for _, e := range errs {
		if e != nil {
			failed++
		}
	}
	return run, final, failed, nil
}
