package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/transport"
)

// Server is cmd/fedserver. It serves the flat, edge or root role over TCP
// until the run ends or ctx is cancelled, logs to stderr, prints the closing
// summary to stdout and returns the exit code. Cancelling ctx shuts the role
// down cleanly: registered peers receive the shutdown frame instead of a
// broken connection.
func Server(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:7070", "listen address")
		clients  = fs.Int("clients", 6, "registrations to wait for (root role: union clients across edges, for the eval mirror)")
		tiers    = fs.Int("tiers", 2, "number of latency tiers")
		rounds   = fs.Int("rounds", 20, "global update budget (root role: cloud fold budget; 0 = until edges depart)")
		perRound = fs.Int("k", 3, "clients per round (per tier round for tier pacing)")
		ds       = fs.String("dataset", "fashion", "dataset: fashion or cifar10")
		seed     = fs.Uint64("seed", 1, "shared seed (must match clients; fixes the model architecture and initial weights)")
		dataSeed = fs.Uint64("data-seed", 0, "federation data seed (0 = -seed); per-edge data shards use distinct data seeds while -seed stays shared")
		prec     = fs.Int("precision", 4, "polyline compression precision (<=0 = raw)")
		epochs   = fs.Int("epochs", 3, "local epochs per round (shipped to clients)")
		batch    = fs.Int("batch", 10, "local batch size (shipped to clients)")
		method   = fs.String("method", "fedat", "registry method to run: "+strings.Join(fl.MethodNames(), ", "))

		// Hierarchical topology.
		role     = fs.String("role", "flat", "server role: flat (standalone), edge (serves clients, folds up to -root), root (cloud: folds edge pushes)")
		edges    = fs.Int("edges", 2, "root role: number of edge aggregators")
		rootAddr = fs.String("root", "", "edge role: the root server's address")
		edgeID   = fs.Int("edge-id", 0, "edge role: this edge's id in the root's 0..edges-1 space")
	)
	// Method composition, staleness, attack/DP and edge→cloud policy flags
	// are fedsim's: the attack regime directs simnet.AttackTargets over
	// -seed, the same subset the simulator poisons.
	shared := bind(fs)
	shared.bindServer()
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	logger := log.New(stderr, "", log.LstdFlags)
	fail := func(code int, err error) int {
		logger.Print("fedserver: ", err)
		return code
	}
	if err := shared.cloudUnused(*role != "flat", "-role edge or root"); err != nil {
		return fail(2, err)
	}
	switch *role {
	case "edge":
		if *rootAddr == "" {
			return fail(2, errors.New("-role edge requires -root <addr>"))
		}
	case "flat", "root":
	default:
		return fail(2, fmt.Errorf("unknown -role %q (have flat, edge, root)", *role))
	}

	fed, factory, err := federation(*ds, *clients, *seed, *dataSeed)
	if err != nil {
		return fail(1, err)
	}
	ref := factory(*seed)
	shapes := ref.ParamShapes()
	// Every role mirrors the federation from the shared seed, so it can
	// evaluate the global model (and feed TiFL's accuracy-driven selection)
	// without extra client traffic.
	ev := fl.NewDataEvaluator(factory, *seed, fed.Clients)

	if *role == "root" {
		// The cloud tier: no engine, no clients of its own — it folds the K
		// edges' pushed models and broadcasts the merged model back.
		cloud := shared.cloud
		cloud.Edges = *edges
		cloud.W0, cloud.Shapes = ref.WeightsCopy(), shapes
		cloud.Eval = func(w []float64) (fl.Result, bool) { return ev.Evaluate(w), true }
		cloud.Dataset, cloud.Method = fed.Name, *method
		root, err := transport.NewRoot(transport.RootConfig{Addr: *addr, Rounds: *rounds, Cloud: cloud, Logf: logger.Printf})
		if err != nil {
			return fail(1, err)
		}
		defer context.AfterFunc(ctx, root.Shutdown)()
		logger.Printf("fedserver: root listening on %s for %d edges", root.Addr(), cloud.Edges)
		run, _, err := root.Run()
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "fedserver: root done after %d cloud folds (mean staleness %.2f); best recorded accuracy %.3f; %.2f MB up, %.2f MB down\n",
			run.EdgeFolds, run.MeanEdgeStaleness(), run.BestAcc(),
			float64(run.UpBytes)/1e6, float64(run.DownBytes)/1e6)
		return 0
	}

	m, err := fl.Compose(*method, shared.sel, shared.pacer, shared.agg, shared.name)
	if err != nil {
		return fail(1, err)
	}
	var observers []fl.Observer
	node := 0 // the event stream's node: the edge id, or 0 for a flat server
	if *role == "edge" {
		up, err := transport.DialUplink(transport.UplinkConfig{
			Root: *rootAddr, EdgeID: *edgeID, NumClients: *clients,
			TopKFrac: shared.cloud.TopKFrac, W0: ref.WeightsCopy(), Shapes: shapes,
			Logf: logger.Printf,
		})
		if err != nil {
			return fail(1, err)
		}
		defer up.Close()
		observers = append(observers, up)
		node = *edgeID
		logger.Printf("fedserver: edge %d folding up to root %s", *edgeID, *rootAddr)
	}
	// The event stream goes to the log, one fl.TraceLine per event.
	observers = append(observers, fl.ObserverFunc(func(ev fl.Event) { logger.Printf("%s", fl.TraceLine(node, ev)) }))

	run := fl.RunConfig{Rounds: *rounds, ClientsPerRound: *perRound, NumTiers: *tiers,
		LocalEpochs: *epochs, BatchSize: *batch, Codec: wire(*prec), Seed: *seed}
	shared.applyRun(&run) // an unset -lambda stays 0 → fl.DefaultLambda
	srv, err := transport.NewServer(transport.ServerConfig{
		Addr:       *addr,
		NumClients: *clients,
		Method:     m,
		Run:        run,
		Shapes:     shapes,
		W0:         ref.WeightsCopy(),
		Dataset:    fed.Name,
		Observers:  observers,
		Attack:     shared.liveAttack(),
		AttackFrac: shared.behavior.AttackFrac,
		Eval:       ev,
		Logf:       logger.Printf,
	})
	if err != nil {
		return fail(1, err)
	}
	defer context.AfterFunc(ctx, srv.Shutdown)()
	logger.Printf("fedserver: listening on %s for %d clients, method %s (%s)", srv.Addr(), *clients, m.Name, m)
	res, final, err := srv.Run()
	if err != nil {
		return fail(1, err)
	}

	// The closing summary: the final model's quality on the pooled
	// held-out data.
	fmt.Fprintf(stdout, "fedserver: %s done after %d global updates; best recorded accuracy %.3f; test accuracy %.3f; %.2f MB up, %.2f MB down\n",
		res.Method, res.GlobalRounds, res.BestAcc(), ev.Evaluate(final).Acc,
		float64(res.UpBytes)/1e6, float64(res.DownBytes)/1e6)
	return 0
}

// Client is cmd/fedclient. It joins the server at -addr as one participant
// and trains on every push until the server's shutdown frame, logging to
// stderr, and returns the exit code. It writes nothing to stdout.
func Client(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedclient", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:7070", "server address")
		id       = fs.Int("id", 0, "client id (0..clients-1)")
		clients  = fs.Int("clients", 6, "total clients in the federation")
		ds       = fs.String("dataset", "fashion", "dataset: fashion or cifar10")
		seed     = fs.Uint64("seed", 1, "shared seed (must match the server)")
		dataSeed = fs.Uint64("data-seed", 0, "federation data seed (0 = -seed); must match this client's edge server")
		latency  = fs.Int("latency", 100, "latency hint in ms (drives tiering)")
		delayMs  = fs.Int("delay", 0, "artificial per-round delay in ms (straggler emulation)")
		// 0.01 is fl.RunConfig's LearningRate default, so a default deployment
		// trains with a default simulator run's local solver. The optimizer is
		// client-side by design: clients own their solver state.
		lr   = fs.Float64("lr", 0.01, "local learning rate (Adam); match the simulator's LearningRate for cross-fabric comparisons")
		prec = fs.Int("precision", 4, "polyline upload compression precision (<=0 = raw; must match the server)")
	)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	logger := log.New(stderr, "", log.LstdFlags)
	fed, factory, err := federation(*ds, *clients, *seed, *dataSeed)
	if err == nil && (*id < 0 || *id >= len(fed.Clients)) {
		err = fmt.Errorf("id %d out of range [0,%d)", *id, len(fed.Clients))
	}
	if err == nil {
		err = transport.RunClient(transport.ClientConfig{
			Addr:            *addr,
			ID:              uint32(*id),
			LatencyHintMs:   uint32(*latency),
			ArtificialDelay: time.Duration(*delayMs) * time.Millisecond,
			Data:            fed.Clients[*id],
			Net:             factory(*seed),
			Opt:             opt.NewAdam(*lr),
			Codec:           wire(*prec),
			Seed:            *seed,
			Classes:         fed.Classes,
			Logf:            logger.Printf,
		})
	}
	if err != nil {
		logger.Print("fedclient: ", err)
		return 1
	}
	logger.Printf("fedclient %d: finished cleanly", *id)
	return 0
}

// federation derives what every party of a live deployment builds from the
// shared flags: the synthetic federation (a data seed of 0 means seed) and
// the model factory. Server and clients must agree on the architecture, or
// a pushed model's shapes do not match.
func federation(name string, clients int, seed, dataSeed uint64) (*dataset.Federated, fl.ModelFactory, error) {
	if dataSeed == 0 {
		dataSeed = seed
	}
	build := dataset.FashionLike
	switch name {
	case "fashion":
	case "cifar10":
		build = dataset.CIFAR10Like
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q", name)
	}
	fed, err := build(clients, 2, dataset.ScaleSmall, dataSeed)
	if err != nil {
		return nil, nil, err
	}
	return fed, func(s uint64) *nn.Network { return nn.NewMLP(rng.New(s), fed.InDim, 16, fed.Classes) }, nil
}

// wire is the upload channel -precision names: polyline, or raw at <= 0.
func wire(precision int) codec.Channel {
	if precision <= 0 {
		return codec.Raw{}
	}
	return codec.NewPolyline(precision)
}
