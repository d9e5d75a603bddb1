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
//
// SIGINT or SIGTERM shuts any role down cleanly: registered peers receive
// the shutdown frame instead of a broken connection. A second signal kills
// the process.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cliflags"
	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
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
		method   = flag.String("method", "fedat", "registry method to run: "+strings.Join(fl.MethodNames(), ", "))

		// Hierarchical topology.
		role     = flag.String("role", "flat", "server role: flat (standalone), edge (serves clients, folds up to -root), root (cloud: folds edge pushes)")
		edges    = flag.Int("edges", 2, "root role: number of edge aggregators")
		rootAddr = flag.String("root", "", "edge role: the root server's address")
		edgeID   = flag.Int("edge-id", 0, "edge role: this edge's id in the root's 0..edges-1 space")
	)
	// Method composition, staleness, attack/DP and edge→cloud policy flags
	// are fedsim's: the attack regime directs simnet.AttackTargets over
	// -seed, the same subset the simulator poisons.
	shared := cliflags.Bind(flag.CommandLine)
	shared.BindServer()
	flag.Parse()

	if *dataSeed == 0 {
		*dataSeed = *seed
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
		ev := fl.NewDataEvaluator(factory, *seed, fed.Clients)
		cloud := shared.Cloud
		cloud.Edges = *edges
		cloud.W0, cloud.Shapes = ref.WeightsCopy(), shapes
		cloud.Eval = func(w []float64) (fl.Result, bool) { return ev.Evaluate(w), true }
		cloud.Dataset, cloud.Method = fed.Name, *method
		runRoot(transport.RootConfig{Addr: *addr, Rounds: *rounds, Cloud: cloud, Logf: log.Printf})
		return
	}

	m, err := fl.Compose(*method, shared.Select, shared.Pacer, shared.Agg, shared.Name)
	if err != nil {
		log.Fatal("fedserver: ", err)
	}
	var wire codec.Channel = codec.Raw{}
	if *prec > 0 {
		wire = codec.NewPolyline(*prec)
	}

	var observers []fl.Observer
	var up *transport.EdgeUplink
	switch *role {
	case "flat":
	case "edge":
		if *rootAddr == "" {
			log.Fatal("fedserver: -role edge requires -root <addr>")
		}
		up, err = transport.DialUplink(transport.UplinkConfig{
			Root: *rootAddr, EdgeID: *edgeID, NumClients: *clients,
			TopKFrac: shared.Cloud.TopKFrac, W0: ref.WeightsCopy(), Shapes: shapes,
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatal("fedserver: ", err)
		}
		observers = append(observers, up)
		log.Printf("fedserver: edge %d folding up to root %s", *edgeID, *rootAddr)
	default:
		log.Fatalf("fedserver: unknown -role %q (have flat, edge, root)", *role)
	}

	run := fl.RunConfig{
		Rounds:          *rounds,
		ClientsPerRound: *perRound,
		NumTiers:        *tiers,
		LocalEpochs:     *epochs,
		BatchSize:       *batch,
		Codec:           wire,
		Seed:            *seed,
	}
	shared.ApplyRun(&run) // an unset -lambda stays 0 → fl.DefaultLambda
	srv, err := transport.NewServer(transport.ServerConfig{
		Addr:       *addr,
		NumClients: *clients,
		Method:     m,
		Run:        run,
		Shapes:     shapes,
		W0:         ref.WeightsCopy(),
		Dataset:    fed.Name,
		Observers:  observers,
		Attack:     shared.Attack(),
		AttackFrac: shared.Behavior.AttackFrac,
		// The server mirrors the federation from the shared seed, so it can
		// evaluate the global model (and feed TiFL's accuracy-driven
		// selection) without extra client traffic.
		Eval: fl.NewDataEvaluator(factory, *seed, fed.Clients),
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatal("fedserver: ", err)
	}
	stopOnSignal(srv.Shutdown)
	log.Printf("fedserver: listening on %s for %d clients, method %s (%s)", srv.Addr(), *clients, m.Name, m)
	res, final, err := srv.Run()
	if up != nil {
		// Explicitly, not deferred: main leaves through os.Exit.
		up.Close()
	}
	if err != nil {
		log.Fatal("fedserver: ", err)
	}
	reportFinal(res, final, fed, factory, *seed)
	os.Exit(0)
}

// runRoot serves the cloud tier: no engine, no clients of its own — it
// folds the K edges' pushed models and broadcasts the merged model back.
func runRoot(cfg transport.RootConfig) {
	root, err := transport.NewRoot(cfg)
	if err != nil {
		log.Fatal("fedserver: ", err)
	}
	stopOnSignal(root.Shutdown)
	log.Printf("fedserver: root listening on %s for %d edges", root.Addr(), cfg.Cloud.Edges)
	run, final, err := root.Run()
	if err != nil {
		log.Fatal("fedserver: ", err)
	}
	fmt.Printf("fedserver: root done after %d cloud folds (mean staleness %.2f); best recorded accuracy %.3f; %.2f MB up, %.2f MB down\n",
		run.EdgeFolds, run.MeanEdgeStaleness(), run.BestAcc(),
		float64(run.UpBytes)/1e6, float64(run.DownBytes)/1e6)
	_ = final
	os.Exit(0)
}

// stopOnSignal calls stop on the first SIGINT or SIGTERM and then restores
// the default handling, so a second signal kills the process.
func stopOnSignal(stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		signal.Stop(sig)
		log.Printf("fedserver: %v: shutting down", s)
		stop()
	}()
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
