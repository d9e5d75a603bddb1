package fl

import (
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/tiering"
)

// ProfileTiers runs the tiering module over the clients' profiled response
// latencies (compute for a nominal round plus mean injected delay) — shared
// by TiFL and FedAT, which reuses TiFL's tiering approach (§2.1). When
// MisTierFrac > 0 that fraction of the profiles is replaced with random
// values, modelling the mis-profiling §2.1 describes ("a portion of clients
// are incorrectly profiled and assigned to a wrong tier"). Latencies and
// sample counts are pure queries on the environment's sources: profiling a
// derived population materializes no client, and each slot is filled on
// its own, so the profile splits over parallel workers and does not depend
// on their count.
func ProfileTiers(env *Env) (*tiering.Tiers, error) {
	lc := LocalConfig{Epochs: env.Cfg.LocalEpochs, BatchSize: env.Cfg.BatchSize}
	lat := make([]float64, env.n)
	parallel.For(len(lat), func(i int) {
		lat[i] = env.runtimes.ExpectedLatency(i, lc.Steps(env.shards.NumTrain(i)))
	})
	if f := env.Cfg.MisTierFrac; f > 0 {
		lo, hi := 1e300, 0.0
		for _, v := range lat {
			lo, hi = min(lo, v), max(hi, v)
		}
		r := rng.New(env.Cfg.Seed).SplitLabeled(hashName("mistier"))
		n := int(f * float64(len(lat)))
		for _, i := range r.Choose(len(lat), n) {
			lat[i] = r.Uniform(lo, hi) // profile scrambled within range
		}
	}
	return tiering.Partition(lat, env.Cfg.NumTiers)
}
