package fl

import (
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/nn"
	"repro/internal/rng"
)

// TestInFlightUplinkFootprint is the memory ledger of the wait-free regime,
// where every client always has an update in flight: a buffered-async
// median run (all × fedbuff × median, K = 10, polyline(4)) over 60 clients
// and a 22,210-parameter MLP. At a mid-run fold the live heap the run added
// to its environment must fit
//
//	(K + replicas + 4) float64 vectors + N int32 vectors + slack
//
// The float64 vectors are the K updates the buffer has read (weight pool),
// the rule's global model, the one cohort position's result buffer, the Adam
// moments (two) of the replica a cohort of one trains on, and per replica up
// to one vector of gradient and layer scratch. The int32 vectors are the
// Comm's fixed-point slots, one per upload in flight. The slack is two
// float64 vectors for everything smaller than a model: shards, activations,
// the median's tile, the event queue and the recorder. Holding each upload
// as a float64 reconstruction instead costs about N + K float64 vectors,
// which this bound rejects.
func TestInFlightUplinkFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine run in -short")
	}
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
	c.rcfg.Codec = codec.NewPolyline(4)
	env, _ := c.derived(t)
	params := len(env.w0)
	if params < 20_000 {
		t.Fatalf("model has %d parameters; the ledger needs at least 20k to dominate the heap", params)
	}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	var mid uint64
	folds := 0
	if _, err := m.Run(env, ObserverFunc(func(ev Event) {
		if _, ok := ev.(TierFoldEvent); ok {
			if folds++; folds == rounds/2 {
				mid = heap()
			}
		}
	})); err != nil {
		t.Fatal(err)
	}
	if mid == 0 {
		t.Fatalf("only %d of %d folds", folds, rounds)
	}

	f64, i32 := uint64(8*params), uint64(4*params)
	const slack = 2 // float64 vectors
	replicas := uint64(len(env.replicas))
	limit := (k+replicas+4+slack)*f64 + n*i32
	got := mid - base
	t.Logf("run holds %.2f MB at fold %d: %.1f float64 vectors; ledger limit %.2f MB ((K+%d+4+%d)·%d kB + N·%d kB)",
		float64(got)/(1<<20), rounds/2, float64(got)/float64(f64), float64(limit)/(1<<20), replicas, slack, f64>>10, i32>>10)
	if got > limit {
		t.Errorf("the run holds %d bytes at a mid-run fold, over the ledger's %d: an upload in flight costs more than its int32 slot", got, limit)
	}
}

// TestTierRunNeverListsPopulation: the random selector's N-entry id list is
// read only by sync pacing's Pick, so a tier-paced FedAT run over a derived
// population never builds it, while a FedAvg run builds it once.
func TestTierRunNeverListsPopulation(t *testing.T) {
	var sels []*randomSelector
	orig := Selectors["random"]
	Selectors["random"] = func() Selector {
		s := orig().(*randomSelector)
		sels = append(sels, s)
		return s
	}
	t.Cleanup(func() { Selectors["random"] = orig })

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
