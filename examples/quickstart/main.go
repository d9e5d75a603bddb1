// Quickstart: train FedAT on a simulated 30-client federation and print the
// convergence timeline.
//
//	go run ./examples/quickstart
//
// This is the smallest end-to-end use of the public pieces: build a
// federated dataset, a virtual cluster with latency tiers, plug in a model
// factory, and run the FedAT method.
package main

import (
	"fmt"
	"log"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/simnet"
)

func main() {
	// 1. A federated dataset: 30 clients, 2 classes each (strong non-IID).
	fed, err := dataset.FashionLike(30, 2, dataset.ScaleSmall, 1)
	if err != nil {
		log.Fatal(err)
	}

	// 2. A virtual population: five latency tiers (0s .. 20-30s injected
	// delays), three unstable clients that drop out mid-training.
	pop, err := simnet.NewPopulation(simnet.ClusterConfig{
		NumClients:  30,
		NumUnstable: 3,
		DropHorizon: 20000,
		SecPerBatch: 0.5,     // compute ~ the injected delays, like the paper's testbed
		UpBW:        1 << 20, // 1 MB/s client links
		DownBW:      1 << 20,
		ServerBW:    16 << 20, // shared server link
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. The model every client trains (architecture must match across
	// clients; the seed only varies initialization).
	factory := func(seed uint64) *nn.Network {
		return nn.NewMLP(rng.New(seed), fed.InDim, 24, fed.Classes)
	}

	// 4. FedAT with the paper's hyperparameters and polyline compression.
	env, err := fl.NewEnv(fed, pop, factory, fl.RunConfig{
		Rounds:          500,
		ClientsPerRound: 5,
		LocalEpochs:     3,
		BatchSize:       10,
		Lambda:          0.4, // Eq. 3 proximal constraint
		LearningRate:    0.005,
		NumTiers:        5,
		Codec:           codec.NewPolyline(4), // §4.3 compression
		EvalEvery:       40,
		Seed:            1,
	})
	if err != nil {
		log.Fatal(err)
	}
	// 5. Run it. FedAT is a composition of pluggable policies (random
	// selection / tier pacing / Eq. 5 folding); observers subscribe to the
	// run's event stream — here we count each tier's global updates.
	foldsPerTier := map[int]int{}
	counter := fl.ObserverFunc(func(ev fl.Event) {
		if f, ok := ev.(fl.TierFoldEvent); ok {
			foldsPerTier[f.Tier]++
		}
	})
	run, err := fl.Methods["fedat"].Run(env, counter)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("round  time      acc    variance  uploaded")
	for _, p := range run.Points {
		fmt.Printf("%5d  %7.1fs  %.3f  %.2e  %8d B\n", p.Round, p.Time, p.Acc, p.Var, p.UpBytes)
	}
	fmt.Printf("\nbest accuracy %.3f after %d global updates; %s uploaded, %s downloaded\n",
		run.BestAcc(), run.GlobalRounds,
		fmtMB(run.UpBytes), fmtMB(run.DownBytes))
	fmt.Print("updates per tier (fast→slow):")
	for m := 0; m < 5; m++ {
		fmt.Printf(" %d", foldsPerTier[m])
	}
	fmt.Println(" — fast tiers update most; Eq. 5 reweights them down")
}

func fmtMB(b int64) string { return fmt.Sprintf("%.2f MB", float64(b)/1e6) }
