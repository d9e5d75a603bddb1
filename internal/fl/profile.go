package fl

import (
	"cmp"
	"slices"

	"repro/internal/rng"
	"repro/internal/tiering"
)

// profileTiers runs the tiering module over the clients' profiled response
// latencies (compute for a nominal round plus mean injected delay) — shared
// by TiFL and FedAT, which reuses TiFL's tiering approach (§2.1). When
// MisTierFrac > 0 that fraction of the profiles is replaced with random
// values, modelling the mis-profiling §2.1 describes ("a portion of clients
// are incorrectly profiled and assigned to a wrong tier"). Latencies and
// sample counts are pure queries on the environment's population and shard
// source: profiling materializes no client, and the profile is a function
// the partition calls from parallel workers rather than a table, so it
// does not depend on their count and no client's latency is stored. The
// scrambled profiles are the one exception: an id-sorted table of
// MisTierFrac·N entries the function checks first.
func profileTiers(env *Env) (*tiering.Tiers, error) {
	lc := LocalConfig{Epochs: env.Cfg.LocalEpochs, BatchSize: env.Cfg.BatchSize}
	latency := func(i int) float64 {
		return env.pop.ExpectedLatency(i, lc.Steps(env.shards.NumTrain(i)))
	}
	if f := env.Cfg.MisTierFrac; f > 0 {
		lo, hi := 1e300, 0.0
		for i := range env.n {
			v := latency(i)
			lo, hi = min(lo, v), max(hi, v)
		}
		r := rng.New(env.Cfg.Seed).SplitLabeled(hashName("mistier"))
		picks := r.Choose(env.n, int(f*float64(env.n)))
		scrambled := make([]scrambledProfile, len(picks))
		for j, i := range picks {
			scrambled[j] = scrambledProfile{int32(i), r.Uniform(lo, hi)} // profile scrambled within range
		}
		byID := func(s scrambledProfile, id int32) int { return cmp.Compare(s.id, id) }
		slices.SortFunc(scrambled, func(a, b scrambledProfile) int { return byID(a, b.id) })
		profiled := latency
		latency = func(i int) float64 {
			if j, ok := slices.BinarySearchFunc(scrambled, int32(i), byID); ok {
				return scrambled[j].latency
			}
			return profiled(i)
		}
	}
	return tiering.PartitionFunc(env.n, env.Cfg.NumTiers, latency)
}

// scrambledProfile is one mis-profiled client's replacement latency.
type scrambledProfile struct {
	id      int32
	latency float64
}
