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
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Client(os.Args[1:], os.Stdout, os.Stderr))
}
