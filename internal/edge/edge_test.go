package edge_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/tiering"
)

// buildEnv constructs a small deterministic environment. Building twice
// with the same arguments yields bit-identical populations — the property
// the flat-vs-hierarchy equivalence tests (and the hierarchy experiment)
// rest on.
func buildEnv(t testing.TB, clients int, dataSeed uint64, cfg fl.RunConfig, behavior simnet.BehaviorConfig) *fl.Env {
	t.Helper()
	fed, err := dataset.FashionLike(clients, 2, dataset.ScaleSmall, dataSeed)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := simnet.NewPopulation(simnet.ClusterConfig{
		NumClients:  clients,
		SecPerBatch: 0.05,
		UpBW:        1 << 20,
		DownBW:      1 << 20,
		ServerBW:    8 << 20,
		Behavior:    behavior,
		Seed:        cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	factory := func(seed uint64) *nn.Network {
		return nn.NewMLP(rng.New(seed), fed.InDim, 16, fed.Classes)
	}
	env, err := fl.NewEnv(fed, pop, factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func edgeCfg() fl.RunConfig {
	return fl.RunConfig{
		Rounds:          20,
		ClientsPerRound: 4,
		LocalEpochs:     1,
		BatchSize:       8,
		Lambda:          0.4,
		LearningRate:    0.01,
		NumTiers:        3,
		EvalEvery:       4,
		Seed:            7,
	}
}

// sig condenses a run into a bit-exact signature of everything the flat
// engine produces. EdgeFolds is deliberately excluded: a 1-edge hierarchy
// records its pass-through folds while a flat run records none, and that
// counter difference is the topology's only observable trace.
func sig(r *metrics.Run) string {
	s := fmt.Sprintf("up=%d down=%d rounds=%d retiers=%d migrations=%d",
		r.UpBytes, r.DownBytes, r.GlobalRounds, r.Retiers, r.TierMigrations)
	for _, p := range r.Points {
		s += fmt.Sprintf("|%d:%016x:%016x:%016x:%016x", p.Round,
			math.Float64bits(p.Time), math.Float64bits(p.Acc),
			math.Float64bits(p.Loss), math.Float64bits(p.Var))
	}
	return s
}

func weightsBits(w []float64) string {
	s := ""
	for _, v := range w {
		s += fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return s
}

// finalCapture returns an observer recording the last fold's global model.
func finalCapture(dst *[]float64) fl.Observer {
	return fl.ObserverFunc(func(ev fl.Event) {
		if tf, ok := ev.(fl.TierFoldEvent); ok {
			*dst = append((*dst)[:0], tf.Global...)
		}
	})
}

// TestEdgeOneEqualsFlat is the pass-through guarantee: a 1-edge hierarchy
// replays the flat run bit-identically — evaluation trajectory, byte
// totals, round counts AND the final model — for every registry method.
func TestEdgeOneEqualsFlat(t *testing.T) {
	for _, name := range fl.MethodNames() {
		t.Run(name, func(t *testing.T) {
			m, err := fl.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := edgeCfg()

			var flatFinal []float64
			flatEnv := buildEnv(t, 16, 11, cfg, simnet.BehaviorConfig{})
			flatRun, err := m.RunOn(flatEnv.Fabric(), cfg, finalCapture(&flatFinal))
			if err != nil {
				t.Fatal(err)
			}

			// At edge:1 the cloud is a pass-through, so the edge's last
			// fold is the merged model.
			var edgeFinal []float64
			edgeEnv := buildEnv(t, 16, 11, cfg, simnet.BehaviorConfig{})
			cloudRun, err := edge.Run(m, cfg, []edge.Child{{Fabric: edgeEnv.FabricOn, Observer: finalCapture(&edgeFinal)}}, edge.CloudConfig{})
			if err != nil {
				t.Fatal(err)
			}

			if got, want := sig(cloudRun), sig(flatRun); got != want {
				t.Errorf("edge:1 run diverged from flat\n got %s\nwant %s", got, want)
			}
			if cloudRun.EdgeFolds == 0 {
				t.Error("edge:1 run recorded no edge folds (pass-through should still count)")
			}
			if got, want := weightsBits(edgeFinal), weightsBits(flatFinal); got != want {
				t.Error("edge:1 final model bits diverged from flat")
			}
		})
	}
}

// dynamicsBehavior is the full client-dynamics stack — speed drift,
// transient churn and a scaling attack — the harshest regime the merged
// timeline has to keep deterministic.
func dynamicsBehavior() simnet.BehaviorConfig {
	return simnet.BehaviorConfig{
		DriftMag:      0.2,
		DriftInterval: 40,
		ChurnFrac:     0.25,
		ChurnOn:       [2]float64{40, 120},
		ChurnOff:      [2]float64{10, 40},
		AttackFrac:    0.2,
		AttackKind:    "scale",
		AttackScale:   -2,
	}
}

// TestEdgeTwoDeterministic runs multi-edge hierarchies twice from
// identically rebuilt environments and requires bit-identical results — the
// merged timeline must leave no trace of host scheduling. Covers both fold
// policies with per-edge runtime re-tiering, and a 3-edge hierarchy under
// the full dynamics stack for the async family: buffered per-update
// staleness with the adaptive-LR stage, and the gradient-style asyncsgd
// rule, whose per-update anchors and per-dispatch LR scales would expose
// any schedule dependence.
func TestEdgeTwoDeterministic(t *testing.T) {
	compose := func(pacer, agg, name string) fl.Method {
		m, err := fl.Compose("fedasync", "", pacer, agg, name)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name     string
		method   fl.Method
		edges    int
		fold     string
		behavior simnet.BehaviorConfig
		mutate   func(*fl.RunConfig)
	}{
		{name: edge.FoldSync, method: fl.Methods["fedat"], edges: 2, fold: edge.FoldSync},
		{name: edge.FoldAsync, method: fl.Methods["fedat"], edges: 2, fold: edge.FoldAsync},
		{name: "dynamics/fedat", method: fl.Methods["fedat"], edges: 3, fold: edge.FoldSync, behavior: dynamicsBehavior()},
		{name: "dynamics/fedasync", method: fl.Methods["fedasync"], edges: 3, fold: edge.FoldSync, behavior: dynamicsBehavior()},
		{name: "dynamics/fedasync-fedbuff-adaptive", method: compose("fedbuff", "fedasync", "fedasync-fedbuff-adaptive"),
			edges: 3, fold: edge.FoldSync, behavior: dynamicsBehavior(), mutate: func(cfg *fl.RunConfig) {
				cfg.BufferK = 3
				cfg.AdaptiveLR = true
			}},
		{name: "dynamics/asyncsgd", method: compose("", "asyncsgd", "asyncsgd"), edges: 3, fold: edge.FoldSync, behavior: dynamicsBehavior(),
			mutate: func(cfg *fl.RunConfig) { cfg.Staleness = fl.StalenessConfig{Func: fl.StaleFuncExp, Alpha: 0.3} }},
	}
	// hierarchy is one run's records: the cloud's, each edge's through an
	// fl.Recorder on its observer, and the last merged model the cloud's
	// evaluator saw (it evaluates after every fold).
	type hierarchy struct {
		cloud *metrics.Run
		edges []*metrics.Run
		final []float64
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			once := func() (*hierarchy, error) {
				h := &hierarchy{edges: make([]*metrics.Run, c.edges)}
				cfg := edgeCfg()
				cfg.RetierEvery = 4
				if c.mutate != nil {
					c.mutate(&cfg)
				}
				children := make([]edge.Child, c.edges)
				for e := range children {
					cfgE := cfg
					cfgE.Seed = cfg.Seed + uint64(e)
					env := buildEnv(t, 8, 11+uint64(e), cfgE, c.behavior)
					h.edges[e] = new(metrics.Run)
					children[e] = edge.Child{Fabric: env.FabricOn, Observer: (*fl.Recorder)(h.edges[e])}
				}
				var err error
				h.cloud, err = edge.Run(c.method, cfg, children, edge.CloudConfig{
					Fold: c.fold,
					Eval: func(w []float64) (fl.Result, bool) {
						h.final = append(h.final[:0], w...)
						return fl.Result{}, true
					},
				})
				return h, err
			}
			a, err := once()
			if err != nil {
				t.Fatal(err)
			}
			b, err := once()
			if err != nil {
				t.Fatal(err)
			}
			if sig(a.cloud) != sig(b.cloud) {
				t.Errorf("cloud records diverged across same-seed runs\n a %s\n b %s", sig(a.cloud), sig(b.cloud))
			}
			for e := range a.edges {
				if sig(a.edges[e]) != sig(b.edges[e]) {
					t.Errorf("edge %d records diverged across same-seed runs", e)
				}
			}
			if a.final == nil || weightsBits(a.final) != weightsBits(b.final) {
				t.Error("final merged models diverged across same-seed runs")
			}
			if a.cloud.EdgeFolds == 0 {
				t.Error("no cloud folds recorded")
			}
			if c.method.Pace != "tier" {
				return
			}
			retiers := 0
			for _, r := range a.edges {
				retiers += r.Retiers
			}
			if retiers == 0 {
				t.Error("no per-edge retier passes ran (RetierEvery=4 with tier pacing should)")
			}
		})
	}
}

// TestChurnedEdgeRevives is the hierarchy's version of the tier-pacer
// revival: one edge's whole population churns offline; the sync barrier
// stalls cloud folds while it is gone, the tier pacer revives the edge at
// its rejoin time, and cloud folding resumes — the run completes with
// post-revival cloud activity.
func TestChurnedEdgeRevives(t *testing.T) {
	cfg := edgeCfg()
	cfg.Rounds = 16
	env0 := buildEnv(t, 8, 11, cfg, simnet.BehaviorConfig{})
	cfg1 := cfg
	cfg1.Seed = cfg.Seed + 1
	env1 := buildEnv(t, 8, 12, cfg1, simnet.BehaviorConfig{
		ChurnFrac: 1.0,
		ChurnOn:   [2]float64{10, 12},
		ChurnOff:  [2]float64{30, 40},
	})
	var churned metrics.Run
	cloudRun, err := edge.Run(fl.Methods["fedat"], cfg, []edge.Child{
		{Fabric: env0.FabricOn},
		{Fabric: env1.FabricOn, Observer: (*fl.Recorder)(&churned)},
	}, edge.CloudConfig{
		Fold: edge.FoldSync,
		Eval: func([]float64) (fl.Result, bool) { return fl.Result{}, true },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Edge 1 is fully offline from ~12 until at least 40 (earliest onset +
	// shortest stay-away), so any cloud fold after 40 is post-revival.
	earliestRejoin := 10.0 + 30.0
	lastFold := 0.0
	for _, p := range cloudRun.Points {
		if p.Time > lastFold {
			lastFold = p.Time
		}
	}
	if lastFold <= earliestRejoin {
		t.Errorf("no cloud fold after the churned edge's revival: last fold at %.1f, revival no earlier than %.1f", lastFold, earliestRejoin)
	}
	if churned.GlobalRounds == 0 {
		t.Error("churned edge folded nothing at all")
	}
}

// TestCloudFoldPolicies unit-tests the fold state machine directly.
func TestCloudFoldPolicies(t *testing.T) {
	w0 := []float64{1, 1}
	shapes := []codec.ShapeInfo{{Name: "w", Dims: []int{2}}}

	t.Run("sync barrier waits for all live edges", func(t *testing.T) {
		c, err := edge.NewCloud(edge.CloudConfig{Edges: 3, Fold: edge.FoldSync, W0: w0, Shapes: shapes})
		if err != nil {
			t.Fatal(err)
		}
		if _, folded := c.Push(0, []float64{2, 2}, 1); folded {
			t.Fatal("folded with 1/3 edges pushed")
		}
		if _, folded := c.Push(1, []float64{4, 4}, 2); folded {
			t.Fatal("folded with 2/3 edges pushed")
		}
		ev, folded := c.Push(2, []float64{6, 6}, 3)
		if !folded {
			t.Fatal("did not fold with all edges pushed")
		}
		if ev.Members != 3 || ev.Round != 1 {
			t.Fatalf("fold event = %+v, want 3 members round 1", ev)
		}
		// counts all equal (1 push each): plain mean of 2,4,6 = 4.
		if g := c.Global(); g[0] != 4 || g[1] != 4 {
			t.Fatalf("merged model = %v, want [4 4]", g)
		}
	})

	t.Run("retire completes the barrier for survivors", func(t *testing.T) {
		c, err := edge.NewCloud(edge.CloudConfig{Edges: 3, Fold: edge.FoldSync, W0: w0, Shapes: shapes})
		if err != nil {
			t.Fatal(err)
		}
		c.Push(0, []float64{2, 2}, 1)
		c.Push(1, []float64{4, 4}, 2)
		c.Retire(2, 3) // the holdout departs: survivors' barrier is complete
		if c.Epoch() != 1 {
			t.Fatalf("epoch = %d after retirement-completed barrier, want 1", c.Epoch())
		}
		if g := c.Global(); g[0] != 3 || g[1] != 3 {
			t.Fatalf("merged model = %v, want [3 3]", g)
		}
		// The departed edge stays out of later folds.
		c.Push(0, []float64{8, 8}, 4)
		if _, folded := c.Push(1, []float64{8, 8}, 5); !folded {
			t.Fatal("survivors alone no longer fold")
		}
	})

	t.Run("async folds per buffered pushes with staleness discount", func(t *testing.T) {
		c, err := edge.NewCloud(edge.CloudConfig{Edges: 2, Fold: edge.FoldAsync, Buffer: 2, StaleExp: 0.5, W0: w0, Shapes: shapes})
		if err != nil {
			t.Fatal(err)
		}
		if _, folded := c.Push(0, []float64{2, 2}, 1); folded {
			t.Fatal("folded with 1/2 buffered pushes")
		}
		if _, folded := c.Push(0, []float64{4, 4}, 2); !folded {
			t.Fatal("did not fold at the buffer")
		}
		// Edge 0 adopts; edge 1 pushes twice without ever adopting — its
		// second push has staleness 1 and is discounted by (1+1)^-0.5.
		if _, _, ok := c.Adopt(0); !ok {
			t.Fatal("edge 0 could not adopt after a fold")
		}
		c.Push(1, []float64{10, 10}, 3)
		ev, folded := c.Push(1, []float64{20, 20}, 4)
		if !folded {
			t.Fatal("did not fold at the second buffer")
		}
		if ev.Staleness != 1 {
			t.Fatalf("staleness = %v, want 1", ev.Staleness)
		}
		alpha := math.Pow(2, -0.5)
		slot1 := 10*(1-alpha) + 20*alpha
		// counts: edge0 = 2 pushes (weight 3), edge1 = 2 pushes (weight 3).
		want := (3*4 + 3*slot1) / 6
		if g := c.Global(); math.Abs(g[0]-want) > 1e-12 {
			t.Fatalf("merged model = %v, want %v", g[0], want)
		}
	})

	t.Run("async with StaleExpOff weighs stale and fresh pushes alike", func(t *testing.T) {
		// The same script as above with the discount switched off: an
		// explicit zero exponent must mean zero, not the 0.5 default, so
		// the stale second push replaces edge 1's slot outright.
		c, err := edge.NewCloud(edge.CloudConfig{Edges: 2, Fold: edge.FoldAsync, Buffer: 2, StaleExp: fl.StaleExpOff, W0: w0, Shapes: shapes})
		if err != nil {
			t.Fatal(err)
		}
		c.Push(0, []float64{2, 2}, 1)
		c.Push(0, []float64{4, 4}, 2)
		if _, _, ok := c.Adopt(0); !ok {
			t.Fatal("edge 0 could not adopt after a fold")
		}
		c.Push(1, []float64{10, 10}, 3)
		ev, folded := c.Push(1, []float64{20, 20}, 4)
		if !folded || ev.Staleness != 1 {
			t.Fatalf("folded=%v staleness=%v, want a fold at staleness 1", folded, ev.Staleness)
		}
		want := (3*4 + 3*20.0) / 6
		if g := c.Global(); g[0] != want {
			t.Fatalf("merged model = %v, want %v (stale push at full weight)", g[0], want)
		}
	})

	t.Run("single edge is an exact pass-through", func(t *testing.T) {
		c, err := edge.NewCloud(edge.CloudConfig{Edges: 1, Fold: edge.FoldSync, W0: w0, Shapes: shapes, TopKFrac: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		push := []float64{0.1 + 0.2, math.Pi} // bit-awkward values on purpose
		if _, folded := c.Push(0, push, 1); !folded {
			t.Fatal("single edge push did not fold")
		}
		g := c.Global()
		if math.Float64bits(g[0]) != math.Float64bits(push[0]) || math.Float64bits(g[1]) != math.Float64bits(push[1]) {
			t.Fatal("single-edge fold is not bit-exact")
		}
		if _, _, ok := c.Adopt(0); ok {
			t.Fatal("single edge must never adopt (it IS the cloud)")
		}
		if r := c.Record(); r.UpBytes != 0 || r.DownBytes != 0 {
			t.Fatalf("single-edge topology accounted cloud bytes: up=%d down=%d", r.UpBytes, r.DownBytes)
		}
	})
}

// TestNewCloudRejectsTopKOutOfRange: a top-k fraction outside [0, 1] is
// refused. NaN fails every comparison, so a range test written as
// "below 0 or above 1" would let it through to a raw uplink.
func TestNewCloudRejectsTopKOutOfRange(t *testing.T) {
	shapes := []codec.ShapeInfo{{Name: "W", Dims: []int{2}}}
	for _, frac := range []float64{1.5, -0.1, math.NaN()} {
		_, err := edge.NewCloud(edge.CloudConfig{Edges: 1, Fold: edge.FoldSync, W0: []float64{1, 2}, Shapes: shapes, TopKFrac: frac})
		if err == nil || !strings.Contains(err.Error(), "top-k fraction") {
			t.Errorf("fraction %g: error %v, want the out-of-range message", frac, err)
		}
	}
}

// TestUplinkRoundTrip is the satellite coverage for the top-k uplink: the
// lossless path (compression disabled) reproduces the model bit-exactly
// through the wire, and the delta path keeps both ends' shared references
// in bit-exact agreement.
func TestUplinkRoundTrip(t *testing.T) {
	shapes := []codec.ShapeInfo{{Name: "w", Dims: []int{5}}}
	w := []float64{0.1, -0.2, 0.3 + 1e-9, math.Pi, -1e-12}
	w0 := []float64{1, 1, 1, 1, 1}

	t.Run("disabled is bit-lossless", func(t *testing.T) {
		ref := append([]float64(nil), w0...)
		msg, err := edge.EncodeUplink(codec.Raw{}, shapes, ref, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := edge.DecodeUplink(msg, ref)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w {
			if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
				t.Fatalf("coordinate %d: %x != %x", i, got[i], w[i])
			}
		}
	})

	t.Run("topk delta keeps both references in sync", func(t *testing.T) {
		cdc := codec.NewTopK(0.4) // keeps 2 of 5 coordinates
		senderRef := append([]float64(nil), w0...)
		receiverRef := append([]float64(nil), w0...)
		for step := 0; step < 3; step++ {
			model := make([]float64, len(w))
			for i := range model {
				model[i] = w[i] * float64(step+1)
			}
			msg, err := edge.EncodeUplink(cdc, shapes, senderRef, model)
			if err != nil {
				t.Fatal(err)
			}
			if !codec.IsTopKMessage(msg) {
				t.Fatal("topk uplink message not tagged as topk on the wire")
			}
			got, err := edge.DecodeUplink(msg, receiverRef)
			if err != nil {
				t.Fatal(err)
			}
			// The sender advances its reference exactly as the receiver
			// reconstructed: dropped coordinates KEEP the reference value.
			if _, err := edge.DecodeUplink(msg, senderRef); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float64bits(senderRef[i]) != math.Float64bits(receiverRef[i]) {
					t.Fatalf("step %d: references diverged at %d", step, i)
				}
			}
		}
	})
}

// countingFabric counts the callbacks scheduled on and fired by its clock.
type countingFabric struct {
	fl.Fabric
	scheduled, fired *int
}

func (f countingFabric) At(t float64, fn func()) {
	*f.scheduled++
	f.Fabric.At(t, func() { *f.fired++; fn() })
}

// failingPartition is a fabric whose latency profiling fails.
type failingPartition struct{ fl.Fabric }

var errPartition = errors.New("profiling failed")

func (failingPartition) Partition(fl.RunConfig) (*tiering.Tiers, error) { return nil, errPartition }

// TestEdgeStartFailureSkipsDrive: when the last edge's engine cannot start
// (its fabric fails the tier partition FedAT needs), edge.Run returns that
// error before driving the merged timeline — the edges started before it
// scheduled work, none of which runs.
func TestEdgeStartFailureSkipsDrive(t *testing.T) {
	cfg := edgeCfg()
	var scheduled, fired int
	children := make([]edge.Child, 3)
	for e := range children {
		env := buildEnv(t, 8, 11+uint64(e), cfg, simnet.BehaviorConfig{})
		children[e] = edge.Child{Fabric: func(c simnet.Clock) fl.Fabric {
			var fab fl.Fabric = countingFabric{Fabric: env.FabricOn(c), scheduled: &scheduled, fired: &fired}
			if e == 2 {
				fab = failingPartition{fab}
			}
			return fab
		}}
	}
	_, err := edge.Run(fl.Methods["fedat"], cfg, children, edge.CloudConfig{})
	if !errors.Is(err, errPartition) {
		t.Fatalf("edge.Run returned %v, want the partition failure", err)
	}
	if scheduled == 0 {
		t.Error("edges 0 and 1 scheduled nothing before edge 2 failed to start")
	}
	if fired != 0 {
		t.Errorf("%d callbacks fired: the timeline was driven after a failed start", fired)
	}
}

// TestAsofedRefusesHierarchicalRebase: ASO-Fed's rule is deliberately not a
// Rebaser (its global is a derived average of per-client copies), so the
// first cloud merge a two-edge hierarchy hands back must fail the run with
// the engine's error rather than be silently undone by the next arrival.
func TestAsofedRefusesHierarchicalRebase(t *testing.T) {
	cfg := edgeCfg()
	env0 := buildEnv(t, 8, 11, cfg, simnet.BehaviorConfig{})
	env1 := buildEnv(t, 8, 12, cfg, simnet.BehaviorConfig{})
	_, err := edge.Run(fl.Methods["asofed"], cfg, []edge.Child{
		{Fabric: env0.FabricOn},
		{Fabric: env1.FabricOn},
	}, edge.CloudConfig{})
	if err == nil || !strings.Contains(err.Error(), "cannot adopt a hierarchical rebase") {
		t.Fatalf("two-edge asofed hierarchy returned %v, want the rebase refusal", err)
	}
}

// startTimes is a fabric that checks the times dispatches and probes start
// at never decrease; the population's links forget reservations that end
// before the latest one.
type startTimes struct {
	fl.Fabric
	t      *testing.T
	edge   int
	last   float64
	starts *int
}

func (f *startTimes) saw(now float64) {
	if now < f.last {
		f.t.Errorf("edge %d: a round starts at %v, after one at %v", f.edge, now, f.last)
	}
	f.last = now
	*f.starts++
}

func (f *startTimes) Dispatch(comm *fl.Comm, cohort []int, now float64, global []float64, lc fl.LocalConfig, deliver func([]fl.TrainResult, error)) {
	f.saw(now)
	f.Fabric.Dispatch(comm, cohort, now, global, lc, deliver)
}

func (f *startTimes) Probe(comm *fl.Comm, ids []int, now float64, w []float64, replyBytes int) (float64, error) {
	f.saw(now)
	return f.Fabric.Probe(comm, ids, now, w, replyBytes)
}

// TestEdgeDispatchTimesNeverDecrease: on two edges driven by one merged
// clock, each edge's dispatch and probe times never decrease, whatever the
// pacer and the cloud's fold policy.
func TestEdgeDispatchTimesNeverDecrease(t *testing.T) {
	fedbuff, err := fl.Compose("fedasync", "", "fedbuff", "", "fedbuff")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []fl.Method{fl.Methods["fedat"], fl.Methods["fedavg"], fl.Methods["tifl"], fl.Methods["fedasync"], fedbuff} {
		for _, fold := range []string{edge.FoldSync, edge.FoldAsync} {
			t.Run(m.Name+"/"+fold, func(t *testing.T) {
				cfg := edgeCfg()
				cfg.BufferK = 3
				starts := 0
				children := make([]edge.Child, 2)
				for e := range children {
					cfgE := cfg
					cfgE.Seed = cfg.Seed + uint64(e)
					env := buildEnv(t, 8, 11+uint64(e), cfgE, dynamicsBehavior())
					children[e] = edge.Child{Fabric: func(c simnet.Clock) fl.Fabric {
						return &startTimes{Fabric: env.FabricOn(c), t: t, edge: e, starts: &starts}
					}}
				}
				if _, err := edge.Run(m, cfg, children, edge.CloudConfig{
					Fold: fold,
					Eval: func([]float64) (fl.Result, bool) { return fl.Result{}, true },
				}); err != nil {
					t.Fatal(err)
				}
				if starts == 0 {
					t.Fatal("nothing was dispatched")
				}
			})
		}
	}
}
