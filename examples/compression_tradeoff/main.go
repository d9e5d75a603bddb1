// Compression tradeoff: train FedAT under different polyline precisions
// (the paper's Figure 5) and print the accuracy/bytes tradeoff, plus a
// direct look at the codec on a real weight vector.
//
//	go run ./examples/compression_tradeoff
package main

import (
	"fmt"
	"log"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/simnet"
)

func main() {
	codecs := []struct {
		label string
		c     codec.Channel
	}{
		{"polyline-3", codec.NewPolyline(3)},
		{"polyline-4", codec.NewPolyline(4)},
		{"polyline-5", codec.NewPolyline(5)},
		{"no compression", codec.Raw{}},
	}

	fmt.Println("codec           best-acc  uploaded   ratio-vs-raw")
	fmt.Println("--------------  --------  ---------  ------------")
	var rawBytes int64
	results := make([]int64, len(codecs))
	accs := make([]float64, len(codecs))
	for i, entry := range codecs {
		run := trainWith(entry.c)
		results[i] = run.UpBytes
		accs[i] = run.BestAcc()
		if entry.label == "no compression" {
			rawBytes = run.UpBytes
		}
	}
	for i, entry := range codecs {
		ratio := float64(rawBytes) / float64(results[i])
		fmt.Printf("%-14s  %8.3f  %6.2f MB  %10.2fx\n",
			entry.label, accs[i], float64(results[i])/1e6, ratio)
	}

	// The codec itself, on one real trained model.
	fmt.Println("\nsingle-model payloads (trained MLP weights):")
	net := nn.NewMLP(rng.New(3), 100, 24, 10)
	w := net.WeightsCopy()
	for _, entry := range codecs {
		enc := entry.c.Encode(w)
		fmt.Printf("  %-14s %7d bytes (%.2fx vs float64, max error %.1e)\n",
			entry.label, len(enc), float64(8*len(w))/float64(len(enc)), entry.c.MaxError())
	}
}

func trainWith(c codec.Channel) *metrics.Run {
	fed, err := dataset.FashionLike(25, 2, dataset.ScaleSmall, 5)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := simnet.NewCluster(simnet.ClusterConfig{
		NumClients: 25, NumUnstable: 2, DropHorizon: 3000,
		SecPerBatch: 0.5, UpBW: 1 << 20, DownBW: 1 << 20, ServerBW: 16 << 20,
		Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	factory := func(seed uint64) *nn.Network {
		return nn.NewMLP(rng.New(seed), fed.InDim, 24, fed.Classes)
	}
	env, err := fl.NewEnv(fed, cluster, factory, fl.RunConfig{
		Rounds: 300, ClientsPerRound: 5, LocalEpochs: 3, BatchSize: 10,
		Lambda: 0.4, LearningRate: 0.005, NumTiers: 5,
		Codec: c, EvalEvery: 20, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	run, err := fl.Run("fedat", env)
	if err != nil {
		log.Fatal(err)
	}
	return run
}
