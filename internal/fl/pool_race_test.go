package fl

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestSharedPoolConcurrentTierFolds hammers one shared weight pool from
// concurrent tier folds — the exact shape of the live fabric, where
// transport goroutines check update buffers out of the run's pool, the
// aggregator folds them, and the engine releases them after the fold. Run
// under -race (the CI -short race pass includes this package) it is the
// data-race certificate for pool + aggregator; poisoning is on, so if any
// fold path retained a released buffer the NaNs would surface in the
// global model, which the test asserts stays finite.
func TestSharedPoolConcurrentTierFolds(t *testing.T) {
	const (
		dim     = 256
		tiers   = 4
		workers = 8
		folds   = 120
	)
	w0 := fuzzVec(9, dim)
	agg, err := core.NewAggregator(tiers, w0, true)
	if err != nil {
		t.Fatal(err)
	}
	pool := tensor.NewPool(dim)
	nan := math.NaN()
	pool.SetPoison(&nan)

	var mu sync.Mutex
	var folded int
	parallel.ForWorkers(folds, workers, func(i int) {
		// Client training, pool-backed: check out a buffer, overwrite it
		// fully with this client's model (Get contents are unspecified),
		// fold it, release it.
		buf := pool.Get()
		src := fuzzVec(uint64(i)+100, dim)
		copy(buf, src)
		if _, err := agg.UpdateTierRef(i%tiers, []core.ClientUpdate{{Weights: buf, N: i%5 + 1, Client: i % 20}}); err != nil {
			t.Error(err)
		}
		pool.Put(buf)
		mu.Lock()
		folded++
		mu.Unlock()
	})
	if folded != folds {
		t.Fatalf("folded %d of %d", folded, folds)
	}
	if agg.Rounds() != folds {
		t.Fatalf("aggregator counted %d folds, want %d", agg.Rounds(), folds)
	}
	for i, v := range agg.GlobalRef() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("global[%d] = %v after pooled folds — a fold retained a released buffer", i, v)
		}
	}
}
