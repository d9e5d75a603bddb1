// Command fedserver runs a federated aggregation server over real TCP,
// driven by the same pluggable policy engine as the simulator: any registry
// method (-method) or novel composition (-select/-pacer/-agg overrides)
// deploys unchanged. Pair it with cmd/fedclient processes (same
// -dataset/-clients/-seed flags so every party derives the same synthetic
// federation and model architecture).
//
// Examples (one server, six clients, two tiers):
//
//	fedserver -addr :7070 -method fedat -clients 6 -tiers 2 -rounds 20 &
//	for i in $(seq 0 5); do
//	  fedclient -addr 127.0.0.1:7070 -id $i -clients 6 -latency $((100 + i*200)) &
//	done
//
//	fedserver -method fedavg ...            # synchronous FedAvg over TCP
//	fedserver -method fedasync ...          # wait-free client loops over TCP
//	fedserver -method fedat -select oversel # over-selection inside FedAT's tiers
//
// Hierarchical deployment (-role): a root process folds K edge
// aggregators, each edge a full fedserver running the engine over its own
// clients and pushing its folded model up. All parties share -seed (the
// model architecture and initial weights derive from it); each edge group
// may shard data with its own -data-seed.
//
//	fedserver -role root -edges 2 -edge-fold sync -rounds 12 &
//	fedserver -role edge -edge-id 0 -root 127.0.0.1:7070 -addr :7071 -clients 3 ... &
//	fedserver -role edge -edge-id 1 -root 127.0.0.1:7070 -addr :7072 -clients 3 -data-seed 2 ... &
//	fedclient -addr 127.0.0.1:7071 -id 0 -clients 3 ... &   # leaf under edge 0
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/robust"
	"repro/internal/transport"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address")
		clients  = flag.Int("clients", 6, "registrations to wait for (root role: union clients across edges, for the eval mirror)")
		tiers    = flag.Int("tiers", 2, "number of latency tiers")
		rounds   = flag.Int("rounds", 20, "global update budget (root role: cloud fold budget; 0 = until edges depart)")
		perRound = flag.Int("k", 3, "clients per round (per tier round for tier pacing)")
		ds       = flag.String("dataset", "fashion", "dataset: fashion or cifar10")
		seed     = flag.Uint64("seed", 1, "shared seed (must match clients; fixes the model architecture and initial weights)")
		dataSeed = flag.Uint64("data-seed", 0, "federation data seed (0 = -seed); per-edge data shards use distinct data seeds while -seed stays shared")
		prec     = flag.Int("precision", 4, "polyline compression precision (<=0 = raw)")
		epochs   = flag.Int("epochs", 3, "local epochs per round (shipped to clients)")
		batch    = flag.Int("batch", 10, "local batch size (shipped to clients)")
		lambda   = flag.Float64("lambda", 0, "proximal coefficient for Prox methods (Eq. 3); 0 inherits the engine default, negative disables")
		retier   = flag.Int("retier-every", 0, "re-tier from measured client latencies every N global updates (0 = static hint tiers)")

		// Method composition, mirroring fedsim -compose.
		method  = flag.String("method", "fedat", "registry method to run: "+strings.Join(fl.MethodNames(), ", "))
		selName = flag.String("select", "", "override the selection policy: random, oversel, tifl, all")
		pacer   = flag.String("pacer", "", "override the pacing policy: sync, tier, client, fedbuff")
		agg     = flag.String("agg", "", "override the aggregation rule spec: avg, eq5, uniform, staleness, asofed, fedasync, asyncsgd, median, trimmed, krum; the staleness family takes params rule[:func[:alpha[:threshold]]], e.g. fedasync:poly:0.5")
		name    = flag.String("name", "", "display name for the composed method")
		bufferK = flag.Int("buffer-k", 0, "fedbuff pacer: arrivals buffered per fold (0 = clients per round)")

		// Staleness knobs, mirroring fedsim's compose mode: the weight
		// function shared by the async update rules and the adaptive-LR stage.
		staleFunc  = flag.String("stale-func", "", "staleness weight function for async aggregation: poly, exp, const, hinge (default poly; an -agg spec's func wins)")
		staleAlpha = flag.Float64("stale-alpha", 0, "staleness discount exponent/rate (unset = engine default 0.5; explicit 0 = no discount)")
		adaptiveLR = flag.Bool("adaptive-lr", false, "scale each dispatch's local learning rate by the staleness weight of its tier/client (shipped to clients in the push header)")

		// Adversarial regime + defenses (the live analogue of fedsim's
		// attack knobs): the server directs a deterministic subset of the
		// population — simnet.AttackTargets over -seed, the same subset the
		// simulator poisons — to attack during local training.
		attackKind  = flag.String("attack", "", "direct an attack regime: labelflip, scale, freeride")
		attackFrac  = flag.Float64("attack-frac", 0, "fraction of the population directed to attack")
		attackScale = flag.Float64("attack-scale", 0, "scale attack amplification factor (0 = default 10x)")
		dpClip      = flag.Float64("dp-clip", 0, "per-client DP delta clip norm shipped with every push (0 = off)")
		dpNoise     = flag.Float64("dp-noise", 0, "DP Gaussian noise multiplier (noise sigma = multiplier * clip)")

		// Hierarchical topology.
		role       = flag.String("role", "flat", "server role: flat (standalone), edge (serves clients, folds up to -root), root (cloud: folds edge pushes)")
		edges      = flag.Int("edges", 2, "root role: number of edge aggregators")
		rootAddr   = flag.String("root", "", "edge role: the root server's address")
		edgeID     = flag.Int("edge-id", 0, "edge role: this edge's id in the root's 0..edges-1 space")
		edgeFold   = flag.String("edge-fold", "sync", "edge→cloud fold policy: sync (barrier) or async (buffered, staleness-weighted)")
		edgeBuffer = flag.Int("edge-buffer", 1, "async fold: edge pushes buffered per cloud fold")
		edgeStale  = flag.Float64("edge-stale-exp", 0.5, "async fold: staleness discount exponent (0 = no discount)")
		pushEvery  = flag.Int("edge-push-every", 1, "edge role: engine folds per cloud push")
		topk       = flag.Float64("uplink-topk", 0, "edge→cloud top-k delta compression: fraction of coordinates kept per push (0 = raw, bit-lossless; must match on root and edges)")
	)
	flag.Parse()

	// An EXPLICIT "-lambda 0" has always meant "no proximal term" and must
	// keep meaning that, even though an unset flag (also 0) now inherits
	// the engine default. "-stale-alpha 0" gets the same treatment: an
	// explicit zero means "no staleness discount", not "use the default" —
	// at the engine (-stale-alpha) and at the cloud (-edge-stale-exp) alike.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "lambda" && *lambda == 0 {
			*lambda = fl.LambdaOff
		}
		if f.Name == "stale-alpha" && *staleAlpha == 0 {
			*staleAlpha = fl.StaleExpOff
		}
		if f.Name == "edge-stale-exp" && *edgeStale == 0 {
			*edgeStale = fl.StaleExpOff
		}
	})
	if *dataSeed == 0 {
		*dataSeed = *seed
	}
	akind, err := robust.ParseKind(*attackKind)
	if err != nil {
		log.Fatal("fedserver: ", err)
	}

	fed, factory, err := buildFederation(*ds, *clients, *dataSeed)
	if err != nil {
		log.Fatal("fedserver: ", err)
	}
	ref := factory(*seed)
	shapes := make([]codec.ShapeInfo, 0)
	for _, s := range ref.ParamShapes() {
		shapes = append(shapes, codec.ShapeInfo{Name: s.Name, Dims: s.Dims})
	}

	if *role == "root" {
		runRoot(rootParams{
			addr: *addr, edges: *edges, rounds: *rounds,
			fold: *edgeFold, buffer: *edgeBuffer, staleExp: *edgeStale, topk: *topk,
			w0: ref.WeightsCopy(), shapes: shapes,
			fed: fed, factory: factory, seed: *seed, method: *method,
		})
		return
	}

	m, err := fl.Compose(*method, *selName, *pacer, *agg, *name)
	if err != nil {
		log.Fatal("fedserver: ", err)
	}
	var wire codec.Codec = codec.Raw{}
	if *prec > 0 {
		wire = codec.NewPolyline(*prec)
	}

	var observers []fl.Observer
	switch *role {
	case "flat":
	case "edge":
		if *rootAddr == "" {
			log.Fatal("fedserver: -role edge requires -root <addr>")
		}
		up, err := transport.DialUplink(transport.UplinkConfig{
			Root: *rootAddr, EdgeID: *edgeID, NumClients: *clients,
			PushEvery: *pushEvery, TopKFrac: *topk,
			W0: ref.WeightsCopy(), Shapes: shapes,
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatal("fedserver: ", err)
		}
		defer up.Close()
		observers = append(observers, up)
		log.Printf("fedserver: edge %d folding up to root %s", *edgeID, *rootAddr)
	default:
		log.Fatalf("fedserver: unknown -role %q (have flat, edge, root)", *role)
	}

	srv, err := transport.NewServer(transport.ServerConfig{
		Addr:       *addr,
		NumClients: *clients,
		Method:     m,
		Run: fl.RunConfig{
			Rounds:          *rounds,
			ClientsPerRound: *perRound,
			NumTiers:        *tiers,
			LocalEpochs:     *epochs,
			BatchSize:       *batch,
			Lambda:          *lambda, // 0 → fl.DefaultLambda via withDefaults
			RetierEvery:     *retier,
			BufferK:         *bufferK,
			Staleness:       fl.StalenessConfig{Func: *staleFunc, Alpha: *staleAlpha},
			AdaptiveLR:      *adaptiveLR,
			DPClip:          *dpClip,
			DPNoise:         *dpNoise,
			Codec:           wire,
			Seed:            *seed,
		},
		Shapes:     shapes,
		W0:         ref.WeightsCopy(),
		Dataset:    fed.Name,
		Observers:  observers,
		Attack:     robust.Attack{Kind: akind, Scale: *attackScale},
		AttackFrac: *attackFrac,
		// The server mirrors the federation from the shared seed, so it can
		// evaluate the global model (and feed TiFL's accuracy-driven
		// selection) without extra client traffic.
		Eval: fl.NewDataEvaluator(factory, *seed, fed.Clients),
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatal("fedserver: ", err)
	}
	log.Printf("fedserver: listening on %s for %d clients, method %s (%s)", srv.Addr(), *clients, m.Name, m)
	run, final, err := srv.Run()
	if err != nil {
		log.Fatal("fedserver: ", err)
	}
	reportFinal(run, final, fed, factory, *seed)
	os.Exit(0)
}

type rootParams struct {
	addr     string
	edges    int
	rounds   int
	fold     string
	buffer   int
	staleExp float64
	topk     float64
	w0       []float64
	shapes   []codec.ShapeInfo
	fed      *dataset.Federated
	factory  fl.ModelFactory
	seed     uint64
	method   string
}

// runRoot serves the cloud tier: no engine, no clients of its own — it
// folds the K edges' pushed models and broadcasts the merged model back.
func runRoot(p rootParams) {
	ev := fl.NewDataEvaluator(p.factory, p.seed, p.fed.Clients)
	root, err := transport.NewRoot(transport.RootConfig{
		Addr:     p.addr,
		Edges:    p.edges,
		Rounds:   p.rounds,
		Fold:     p.fold,
		Buffer:   p.buffer,
		StaleExp: p.staleExp,
		TopKFrac: p.topk,
		W0:       p.w0,
		Shapes:   p.shapes,
		Eval:     func(w []float64) (fl.Result, bool) { return ev.Evaluate(w), true },
		Dataset:  p.fed.Name,
		Method:   p.method,
		Logf:     log.Printf,
	})
	if err != nil {
		log.Fatal("fedserver: ", err)
	}
	log.Printf("fedserver: root listening on %s for %d edges (%s fold)", root.Addr(), p.edges, p.fold)
	run, final, err := root.Run()
	if err != nil {
		log.Fatal("fedserver: ", err)
	}
	fmt.Printf("fedserver: root done after %d cloud folds (mean staleness %.2f); best recorded accuracy %.3f; %.2f MB up, %.2f MB down\n",
		run.EdgeFolds, meanStaleness(run.EdgeStaleness, run.EdgeFolds), run.BestAcc(),
		float64(run.UpBytes)/1e6, float64(run.DownBytes)/1e6)
	_ = final
	os.Exit(0)
}

func meanStaleness(total float64, folds int) float64 {
	if folds == 0 {
		return 0
	}
	return total / float64(folds)
}

// reportFinal prints the flat/edge server's closing summary: the final
// model's quality on the pooled held-out data.
func reportFinal(run *metrics.Run, final []float64, fed *dataset.Federated, factory fl.ModelFactory, seed uint64) {
	eval := factory(seed)
	eval.SetWeights(final)
	correct, total := 0, 0
	for _, c := range fed.Clients {
		cor, _ := eval.Eval(c.TestX, c.TestY)
		correct += cor
		total += c.NumTest()
	}
	fmt.Printf("fedserver: %s done after %d global updates; best recorded accuracy %.3f; test accuracy %.3f (%d/%d); %.2f MB up, %.2f MB down\n",
		run.Method, run.GlobalRounds, run.BestAcc(),
		float64(correct)/float64(total), correct, total,
		float64(run.UpBytes)/1e6, float64(run.DownBytes)/1e6)
}

func buildFederation(name string, clients int, dataSeed uint64) (*dataset.Federated, fl.ModelFactory, error) {
	var fed *dataset.Federated
	var err error
	switch name {
	case "fashion":
		fed, err = dataset.FashionLike(clients, 2, dataset.ScaleSmall, dataSeed)
	case "cifar10":
		fed, err = dataset.CIFAR10Like(clients, 2, dataset.ScaleSmall, dataSeed)
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q", name)
	}
	if err != nil {
		return nil, nil, err
	}
	factory := func(s uint64) *nn.Network {
		return nn.NewMLP(rng.New(s), fed.InDim, 16, fed.Classes)
	}
	return fed, factory, nil
}
