package edge_test

import (
	"testing"

	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/simnet"
)

// dynamicsBehavior is the full client-dynamics stack — speed drift,
// transient churn, late joins and a scaling attack — the harshest regime
// the parallel timeline driver has to keep deterministic.
func dynamicsBehavior() simnet.BehaviorConfig {
	return simnet.BehaviorConfig{
		DriftMag:      0.2,
		DriftInterval: 40,
		ChurnFrac:     0.25,
		ChurnOn:       [2]float64{40, 120},
		ChurnOff:      [2]float64{10, 40},
		LateJoinFrac:  0.15,
		AttackFrac:    0.2,
		AttackKind:    "scale",
		AttackScale:   -2,
	}
}

// runHierarchyAt rebuilds a 3-edge hierarchy under full client dynamics
// from scratch and runs it with the given driver worker count.
func runHierarchyAt(t *testing.T, method string, workers int) *edge.Result {
	return runHierarchyMethodAt(t, fl.Methods[method], nil, workers)
}

// runHierarchyMethodAt is runHierarchyAt for an explicit (possibly
// composed) method spec, with an optional config mutation applied before
// the environments are built.
func runHierarchyMethodAt(t *testing.T, m fl.Method, mutate func(*fl.RunConfig), workers int) *edge.Result {
	t.Helper()
	cfg := edgeCfg()
	cfg.RetierEvery = 4
	if mutate != nil {
		mutate(&cfg)
	}
	children := make([]edge.Child, 3)
	for e := range children {
		cfgE := cfg
		cfgE.Seed = cfg.Seed + uint64(e)
		env := buildEnv(t, 8, 11+uint64(e), cfgE, dynamicsBehavior())
		children[e] = edge.Child{Fabric: env.FabricOn}
	}
	res, err := edge.Run(m, cfg, children, edge.Options{
		Cloud: edge.CloudConfig{
			Fold: edge.FoldSync,
			Eval: func([]float64) (fl.Result, bool) { return fl.Result{}, true },
		},
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDriveWorkersBitIdentical is the sharded-clock determinism contract:
// a hierarchy under drift + churn + late joins + attacks produces
// bit-identical results at any driver worker count. Edge-local events of
// distinct edges overlap on worker goroutines, but fold sites serialize at
// quiescent points of the merged timeline, so the parallel schedule is
// observationally equal to the serial one.
func TestDriveWorkersBitIdentical(t *testing.T) {
	for _, method := range []string{"fedat", "fedasync"} {
		t.Run(method, func(t *testing.T) {
			ref := runHierarchyAt(t, method, 1)
			if ref.Cloud.EdgeFolds == 0 {
				t.Fatal("reference run recorded no cloud folds")
			}
			for _, workers := range []int{2, 8} {
				got := runHierarchyAt(t, method, workers)
				if sig(got.Cloud) != sig(ref.Cloud) {
					t.Errorf("workers=%d: cloud record diverged from serial drive", workers)
				}
				for e := range ref.Edges {
					if sig(got.Edges[e]) != sig(ref.Edges[e]) {
						t.Errorf("workers=%d: edge %d record diverged from serial drive", workers, e)
					}
				}
				if weightsBits(got.Final) != weightsBits(ref.Final) {
					t.Errorf("workers=%d: final merged model bits diverged from serial drive", workers)
				}
			}
		})
	}
}

// TestDriveWorkersBitIdenticalAsyncFamily extends the sharded-clock
// determinism contract to the parameterized async family: a buffered
// per-update-staleness fold with the adaptive-LR stage on, and the
// gradient-style asyncsgd rule, must both stay bit-identical across driver
// worker counts — the new rules read per-update anchors and per-dispatch LR
// scales, so any schedule-dependence in those paths would show up here.
func TestDriveWorkersBitIdenticalAsyncFamily(t *testing.T) {
	variants := []struct {
		name   string
		pacer  string
		agg    string
		mutate func(*fl.RunConfig)
	}{
		{"fedasync-fedbuff-adaptive", "fedbuff", "fedasync:poly:0.5", func(cfg *fl.RunConfig) {
			cfg.BufferK = 3
			cfg.AdaptiveLR = true
		}},
		{"asyncsgd", "", "asyncsgd:exp:0.3", nil},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			m, err := fl.Compose("fedasync", "", v.pacer, v.agg, v.name)
			if err != nil {
				t.Fatal(err)
			}
			ref := runHierarchyMethodAt(t, m, v.mutate, 1)
			if ref.Cloud.EdgeFolds == 0 {
				t.Fatal("reference run recorded no cloud folds")
			}
			for _, workers := range []int{2, 8} {
				got := runHierarchyMethodAt(t, m, v.mutate, workers)
				if sig(got.Cloud) != sig(ref.Cloud) {
					t.Errorf("workers=%d: cloud record diverged from serial drive", workers)
				}
				for e := range ref.Edges {
					if sig(got.Edges[e]) != sig(ref.Edges[e]) {
						t.Errorf("workers=%d: edge %d record diverged from serial drive", workers, e)
					}
				}
				if weightsBits(got.Final) != weightsBits(ref.Final) {
					t.Errorf("workers=%d: final merged model bits diverged from serial drive", workers)
				}
			}
		})
	}
}
