// Command fedclient joins a fedserver as one federated participant: it
// derives its local shard of the synthetic federation from the shared
// flags, then trains whenever the server pushes the global model. Local
// training settings (epochs, batch size, proximal λ, the DP stage, any
// attack directive) arrive with each push — the server's method composition
// decides them, not client flags.
//
// In a hierarchical deployment (fedserver -role edge/root) a client joins
// ITS EDGE's server, not the root: -addr points at the edge aggregator,
// -clients and -id live in that edge's 0..N-1 space, and -data-seed must
// match the edge server's (each edge group may shard data with its own
// data seed while every party shares -seed for the model architecture).
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/transport"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "server address")
		id       = flag.Int("id", 0, "client id (0..clients-1)")
		clients  = flag.Int("clients", 6, "total clients in the federation")
		ds       = flag.String("dataset", "fashion", "dataset: fashion or cifar10")
		seed     = flag.Uint64("seed", 1, "shared seed (must match the server)")
		dataSeed = flag.Uint64("data-seed", 0, "federation data seed (0 = -seed); must match this client's edge server")
		latency  = flag.Int("latency", 100, "latency hint in ms (drives tiering)")
		delayMs  = flag.Int("delay", 0, "artificial per-round delay in ms (straggler emulation)")
		// 0.01 matches fl.RunConfig's LearningRate default, so a default
		// fedserver+fedclient deployment trains with the same local solver
		// as a default simulator run. The optimizer stays client-side by
		// design (clients own their solver state); keep this aligned with
		// the server's RunConfig when comparing fabrics.
		lr   = flag.Float64("lr", 0.01, "local learning rate (Adam); match the simulator's LearningRate for cross-fabric comparisons")
		prec = flag.Int("precision", 4, "polyline upload compression precision (<=0 = raw; must match the server)")
	)
	flag.Parse()

	if *dataSeed == 0 {
		*dataSeed = *seed
	}
	fed, err := buildFederation(*ds, *clients, *dataSeed)
	if err != nil {
		log.Fatal("fedclient: ", err)
	}
	if *id < 0 || *id >= len(fed.Clients) {
		log.Fatalf("fedclient: id %d out of range [0,%d)", *id, len(fed.Clients))
	}
	var wire codec.Channel = codec.Raw{}
	if *prec > 0 {
		wire = codec.NewPolyline(*prec)
	}
	net := nn.NewMLP(rng.New(*seed), fed.InDim, 16, fed.Classes)
	err = transport.RunClient(transport.ClientConfig{
		Addr:            *addr,
		ID:              uint32(*id),
		LatencyHintMs:   uint32(*latency),
		ArtificialDelay: time.Duration(*delayMs) * time.Millisecond,
		Data:            fed.Clients[*id],
		Net:             net,
		Opt:             opt.NewAdam(*lr),
		Codec:           wire,
		Seed:            *seed,
		Classes:         fed.Classes,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatal("fedclient: ", err)
	}
	log.Printf("fedclient %d: finished cleanly", *id)
}

func buildFederation(name string, clients int, seed uint64) (*dataset.Federated, error) {
	switch name {
	case "fashion":
		return dataset.FashionLike(clients, 2, dataset.ScaleSmall, seed)
	case "cifar10":
		return dataset.CIFAR10Like(clients, 2, dataset.ScaleSmall, seed)
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
}
