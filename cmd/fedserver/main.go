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
	"context"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // the first signal shuts down; a second kills
	os.Exit(cli.Server(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
