package fl

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// TestInFlightUplinkFootprint is the memory ledger of the wait-free regime,
// where every client always has an update in flight: a buffered-async
// median run (all × fedbuff × median, K = 10) over 60 clients and a
// 22,210-parameter MLP. At a mid-run fold the live heap the run added to
// its environment must fit
//
//	(K + replicas + 4) float64 vectors + N slot vectors + slack
//
// The float64 vectors are the K updates the buffer has read and the one
// buffer a cohort of one trains into (both from the weight pool), the
// rule's global model, the Adam moments (two) of the replica that cohort
// trains on, and per replica up to one vector of gradient and layer
// scratch. The slot vectors are the
// Comm's fixed-point slots, one per upload in flight. The slack is two
// float64 vectors for everything smaller than a model: shards, activations,
// the median's tile, the event queue and the Recorder. Each vector counts
// at the size the allocator hands out for it, which above 32 kB is whole
// 8 kB pages: at 22,210 parameters, 176 kB for a float64 vector and 48 kB
// for an int16 one, whose 43.4 kB of values take six pages.
//
// Under polyline(4) every weight of this model quantizes inside int16, so a
// slot is an int16 vector; holding each upload in an int32 slot, or as a
// float64 reconstruction, costs more than the bound allows. Under
// polyline(6) most weights fall outside int16 and every slot is held dense:
// its bound is an int32 vector, the four bytes a parameter no upload in
// flight exceeds.
func TestInFlightUplinkFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine run in -short")
	}
	for _, tc := range []struct {
		prec     int
		slotSize int // bytes a parameter
		kind     string
	}{
		{4, 2, "int16"},
		{6, 4, "int32"},
	} {
		t.Run(fmt.Sprintf("polyline%d", tc.prec), func(t *testing.T) {
			const n, k, rounds = 60, 10, 40
			m, err := Compose("fedasync", "", "fedbuff", "median", "")
			if err != nil {
				t.Fatal(err)
			}
			c := baseSourceCase(41)
			c.dcfg.NumClients, c.ccfg.NumClients, c.ccfg.NumUnstable = n, n, 0
			c.dcfg.ImgH, c.dcfg.ImgW = 10, 10
			c.factory = func(seed uint64) *nn.Network { return nn.NewMLP(rng.New(seed), 100, 200, 10) }
			c.rcfg.Rounds, c.rcfg.BufferK, c.rcfg.EvalEvery = rounds, k, 10
			c.rcfg.Codec = codec.NewPolyline(tc.prec)
			env, _ := c.derived(t)
			params := len(env.w0)
			if params < 20_000 {
				t.Fatalf("model has %d parameters; the ledger needs at least 20k to dominate the heap", params)
			}

			base := liveHeap()
			var mid uint64
			folds := 0
			if _, err := m.Run(env, ObserverFunc(func(ev Event) {
				if _, ok := ev.(TierFoldEvent); ok {
					if folds++; folds == rounds/2 {
						mid = liveHeap()
					}
				}
			})); err != nil {
				t.Fatal(err)
			}
			if mid == 0 {
				t.Fatalf("only %d of %d folds", folds, rounds)
			}

			f64, slot := allocSize(8*params), allocSize(tc.slotSize*params)
			const slack = 2 // float64 vectors
			replicas := uint64(len(env.replicas))
			limit := (k+replicas+4+slack)*f64 + n*slot
			got := mid - base
			t.Logf("run holds %.2f MB at fold %d: %.1f float64 vectors; ledger limit %.2f MB ((K+%d+4+%d)·%d kB + N·%d kB)",
				float64(got)/(1<<20), rounds/2, float64(got)/float64(f64), float64(limit)/(1<<20), replicas, slack, f64>>10, slot>>10)
			if got > limit {
				t.Errorf("the run holds %d bytes at a mid-run fold, over the ledger's %d: an upload in flight costs more than an %s vector", got, limit, tc.kind)
			}
		})
	}
}

// TestEnvFootprint is the memory ledger of a retained CNN environment
// under the raw codec (SmallCNN without pooling on 6×6 images, 22,362
// parameters; 30 clients, cohort 6, batch 8), for fedavg, fedat and tifl at
// GOMAXPROCS 2. At a mid-run fold the heap the environment and its run
// added since the dataset and population were built must be within a
// slack of
//
//	replicas × (w, g) + trained replicas × (m, v)
//	+ w0 + pool high-water + rule state
//	+ replicas × (per-layer cols × p im2col scratch + activations)
//
// w and g are each replica's flat weights and gradients, and m and v the
// Adam moments of a replica that trained. The layers keep no weight-sized
// gradient scratch: Dense and Conv2D accumulate their weight gradients
// straight into g, so a layer that summed dW into a scratch first (one
// vector more per replica) costs more than the slack allows.
// The pool high-water is counted from the run's traffic by ledgerFabric: a
// dispatch draws the downlink snapshot and one training buffer per member
// from the run's weight pool on top of the uploads already in flight, and
// a fold hands its updates back. Rule state is the aggregator's global
// model and one model per tier. The im2col scratch is one cols × p matrix
// per conv layer whatever the batch. The activations are every layer's
// outputs and ReLU masks at the larger of a batch and the largest test
// split (10 rows), and its input gradients at a batch. The slack is two
// float64 vectors, for everything smaller than a model (per-client
// runtimes, tiers, batch scratch, events, the Recorder) and the
// allocator's rounding. A model-sized buffer outside the pool, such as a
// result buffer per cohort position (five vectors more than the pool's
// high-water), or im2col matrices kept per sample (ten more per replica
// at 10 rows, about nine vectors over two replicas) costs more than the
// slack allows.
func TestEnvFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine runs in -short")
	}
	const n, cohort, batch, rounds = 30, 6, 8, 12
	const inC, side, classes = 1, 6, 10
	cnn := nn.SmallCNN(inC, side, side, classes)
	cnn.PoolEvery = 0
	// The ledger's architecture, read off the parameter shapes: a conv's
	// weight is [out, in, k, k], a dense layer's [out, in].
	var convC []int
	var kernel, hidden int
	for _, s := range nn.NewCNN(rng.New(1), cnn).ParamShapes() {
		switch {
		case s.Name == "W" && len(s.Dims) == 4:
			convC, kernel = append(convC, s.Dims[0]), s.Dims[2]
		case s.Name == "W" && hidden == 0:
			hidden = s.Dims[0]
		}
	}
	for _, name := range []string{"fedavg", "fedat", "tifl"} {
		t.Run(name, func(t *testing.T) {
			c := baseSourceCase(47)
			c.dcfg.NumClients, c.ccfg.NumClients, c.ccfg.NumUnstable = n, n, 0
			c.dcfg.SamplesPerClient = 40 // 32 to train, 8 to test
			c.rcfg.Rounds, c.rcfg.ClientsPerRound, c.rcfg.BatchSize = rounds, cohort, batch
			c.rcfg.Codec = codec.Raw{}
			c.factory = func(seed uint64) *nn.Network { return nn.NewCNN(rng.New(seed), cnn) }
			withProcs(2, func() {
				fed, err := dataset.Generate(c.dcfg)
				if err != nil {
					t.Fatal(err)
				}
				pop, err := simnet.NewPopulation(c.ccfg)
				if err != nil {
					t.Fatal(err)
				}
				base := liveHeap()
				env, err := NewEnv(fed, pop, c.factory, c.rcfg)
				if err != nil {
					t.Fatal(err)
				}
				fab := &ledgerFabric{Fabric: env.Fabric()}
				var mid uint64
				var midHighWater, folds int
				mustRunOn(t, name, fab, env.cfg, ObserverFunc(func(ev Event) {
					if f, ok := ev.(TierFoldEvent); ok {
						fab.inFlight -= f.Kept
						if folds++; folds == rounds/2 {
							mid, midHighWater = liveHeap(), fab.highWater
						}
					}
				}))
				if mid == 0 {
					t.Fatalf("only %d of %d folds", folds, rounds)
				}

				vec := allocSize(8 * len(env.w0))
				if len(env.w0) < 20_000 {
					t.Fatalf("model has %d parameters; the ledger needs at least 20k to dominate the heap", len(env.w0))
				}
				replicas, trained := uint64(len(env.replicas)), uint64(0)
				for _, r := range env.replicas {
					if r.batchX != nil {
						trained++
					}
				}
				ruleState := uint64(2) // the global model and the one tier's
				if name == "fedat" {
					ruleState = uint64(env.cfg.NumTiers) + 1
				}
				// Forward buffers grow to the larger of a batch and the
				// largest test split the evaluator feeds; backward ones to
				// a batch.
				fwdRows := batch
				for _, cd := range fed.Clients {
					fwdRows = max(fwdRows, cd.NumTest())
				}
				p := side * side
				var cols, fwd, bwd int // float64s a replica holds
				for i, in := range append([]int{inC}, convC[:len(convC)-1]...) {
					outC := convC[i]
					cols += in * kernel * kernel * p
					fwd += 3 * outC * p            // conv out, ReLU out and mask
					bwd += outC*p + min(i, 1)*in*p // ReLU dx, conv dx but the first's
				}
				fwd += 3*hidden + 2*classes             // dense out, ReLU out and mask, logits, dlogits
				bwd += convC[len(convC)-1]*p + 2*hidden // dense dx, ReLU dx, head dx
				act := fwdRows*fwd + batch*bwd
				vectors := replicas*2 + trained*2 + 1 + uint64(midHighWater) + ruleState
				ledger := vectors*vec + replicas*(allocSize(8*cols)+allocSize(8*act))
				const slack = 2 // float64 vectors
				got := int64(mid - base)
				t.Logf("%s holds %.2f MB at fold %d, the ledger %.2f MB: %d vectors of %d kB (%d replicas, %d trained, pool high-water %d, rule %d) + %d kB im2col and %d kB activations at %d and %d rows a replica",
					name, float64(got)/(1<<20), rounds/2, float64(ledger)/(1<<20), vectors, vec>>10,
					replicas, trained, midHighWater, ruleState, allocSize(8*cols)>>10, allocSize(8*act)>>10, fwdRows, batch)
				if d := got - int64(ledger); d > slack*int64(vec) || d < -slack*int64(vec) {
					t.Errorf("%s holds %d bytes at a mid-run fold, %+d from the ledger's %d: more than the slack of %d float64 vectors", name, got, d, ledger, slack)
				}
			})
		})
	}
}

// ledgerFabric is a simulated fabric that counts the weight-pool vectors
// its traffic needs: a dispatch holds the downlink snapshot and one
// training buffer per member on top of the uploads already in flight, and
// every member that was not dropped then waits as one pooled upload. The
// observer that sees a fold subtracts its updates from inFlight.
type ledgerFabric struct {
	Fabric
	inFlight, highWater int
}

func (f *ledgerFabric) Dispatch(comm *Comm, cohort []int, now float64, global []float64, lc LocalConfig, deliver func([]TrainResult, error)) {
	f.highWater = max(f.highWater, f.inFlight+len(cohort)+1)
	f.Fabric.Dispatch(comm, cohort, now, global, lc, func(results []TrainResult, err error) {
		for _, r := range results {
			if !r.Dropped {
				f.inFlight++
			}
		}
		deliver(results, err)
	})
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocSize is what the allocator hands out for a buffer of the given
// size: a size class below 32 kB, whole 8 kB pages above.
func allocSize(bytes int) uint64 { return uint64(cap(slices.Grow([]byte(nil), bytes))) }

// TestTierRunNeverListsPopulation: the random selector's N-entry id list is
// read only by sync pacing's Pick, so a tier-paced FedAT run over a derived
// population never builds it, while a FedAvg run builds it once.
func TestTierRunNeverListsPopulation(t *testing.T) {
	var sels []*randomSelector
	orig := selectors["random"]
	selectors["random"] = func() selector {
		s := orig().(*randomSelector)
		sels = append(sels, s)
		return s
	}
	t.Cleanup(func() { selectors["random"] = orig })

	c := baseSourceCase(43)
	env, _ := c.derived(t)
	mustRun(t, "fedat", env)
	env.ResetState()
	mustRun(t, "fedavg", env)
	if len(sels) != 2 {
		t.Fatalf("%d random selectors built, want 2", len(sels))
	}
	if sels[0].all != nil {
		t.Errorf("tier-paced fedat built a %d-entry id list", len(sels[0].all))
	}
	if len(sels[1].all) != c.dcfg.NumClients {
		t.Errorf("sync-paced fedavg holds a %d-entry id list, want %d", len(sels[1].all), c.dcfg.NumClients)
	}
}

// TestTrainResultSize pins the layout the fixed-point slot id relies on:
// it sits in the padding after Dropped, so results stay 64 bytes where int
// is 64 bits and 40 where it is 32.
func TestTrainResultSize(t *testing.T) {
	want := uintptr(64)
	if strconv.IntSize == 32 {
		want = 40
	}
	if got := unsafe.Sizeof(TrainResult{}); got != want {
		t.Fatalf("TrainResult is %d bytes, want %d", got, want)
	}
}
