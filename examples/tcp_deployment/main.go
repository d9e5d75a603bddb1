// TCP deployment: run a real federated server and eight clients over
// localhost TCP in one process — the same code path as
// cmd/fedserver/cmd/fedclient. The server contains no method-specific loop:
// it hands the internal/fl policy engine a live fabric, so ANY registry
// method or composed variant deploys unchanged. To make the point, this
// example runs tier-paced FedAT and then wait-free FedAsync over the very
// same transport.
//
//	go run ./examples/tcp_deployment
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/transport"
)

const (
	numClients = 8
	rounds     = 12
	seed       = 11
)

func main() {
	fed, err := dataset.FashionLike(numClients, 2, dataset.ScaleSmall, seed)
	if err != nil {
		log.Fatal(err)
	}
	factory := func(s uint64) *nn.Network {
		return nn.NewMLP(rng.New(s), fed.InDim, 16, fed.Classes)
	}
	for _, method := range []string{"fedat", "fedasync"} {
		deploy(fed, factory, method)
	}
}

// deploy runs one registry method over loopback TCP and reports the final
// model's pooled held-out accuracy.
func deploy(fed *dataset.Federated, factory fl.ModelFactory, method string) {
	ref := factory(seed)
	ev := fl.NewDataEvaluator(factory, seed, fed.Clients)
	srv, err := transport.NewServer(transport.ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: numClients,
		Method:     fl.Methods[method],
		Run: fl.RunConfig{
			Rounds:          rounds,
			ClientsPerRound: 3,
			NumTiers:        3,
			LocalEpochs:     2,
			BatchSize:       8,
			Lambda:          0.4,
			Codec:           codec.NewPolyline(4),
			Seed:            seed,
		},
		Shapes:  ref.ParamShapes(),
		W0:      ref.WeightsCopy(),
		Dataset: fed.Name,
		Eval:    ev,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s server listening on %s\n", method, srv.Addr())

	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Latency hints spread the clients over three tiers; the
			// artificial delay makes the slow tier really slow.
			hint := uint32(50 + 300*(i%3))
			err := transport.RunClient(transport.ClientConfig{
				Addr:            srv.Addr(),
				ID:              uint32(i),
				LatencyHintMs:   hint,
				ArtificialDelay: time.Duration(hint) * time.Millisecond / 10,
				Data:            fed.Clients[i],
				Net:             factory(seed),
				Opt:             opt.NewAdam(0.01),
				Seed:            seed,
			})
			if err != nil {
				log.Printf("client %d: %v", i, err)
			}
		}(i)
	}

	run, final, err := srv.Run()
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	fmt.Printf("%s finished %d global updates over TCP (%.2f MB up)\n",
		run.Method, run.GlobalRounds, float64(run.UpBytes)/1e6)
	// The final global model's accuracy on the pooled held-out data.
	fmt.Printf("final model accuracy on held-out data: %.3f\n\n", ev.Evaluate(final).Acc)
}
