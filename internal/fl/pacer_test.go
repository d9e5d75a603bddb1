package fl

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// deferredFabric is a simulated fabric that delivers the way the live one
// does: Dispatch computes the round at once but hands it to the engine from
// the clock, after Dispatch has returned and other loops have run. It
// copies the results, since the engine's are overwritten by the next
// dispatch, and a snapshot of the cohort; at delivery the cohort the loop
// passed must still hold what it held at dispatch — a loop that picked or
// dispatched again with a round in flight would have rewritten it.
type deferredFabric struct {
	Fabric
	t *testing.T
}

func (f *deferredFabric) Dispatch(comm *Comm, cohort []int, now float64, global []float64, lc LocalConfig, deliver func([]TrainResult, error)) {
	var results []TrainResult
	f.Fabric.Dispatch(comm, cohort, now, global, lc, func(r []TrainResult, err error) {
		if err != nil {
			f.t.Fatal(err)
		}
		results = slices.Clone(r)
	})
	snap := slices.Clone(cohort)
	f.At(now, func() {
		if !slices.Equal(cohort, snap) {
			f.t.Errorf("cohort %v dispatched at %v was rewritten to %v before its delivery", snap, now, cohort)
		}
		deliver(results, nil)
	})
}

// TestNestedEmitPanics pins the guard behind the engine-owned events: a
// round start or fold emitted from inside an observer's OnEvent would
// rewrite the record the outer event's remaining observers still read, so
// emit panics; emits one after another reuse the records freely.
func TestNestedEmitPanics(t *testing.T) {
	rs := &runState{}
	var rounds []int
	nest := false
	rs.obs = []Observer{ObserverFunc(func(ev Event) {
		switch e := ev.(type) {
		case RoundStartEvent:
			rounds = append(rounds, e.Round)
		case TierFoldEvent:
			if nest {
				rs.emitRoundStart(0, e.Round, e.Time, nil)
			}
		}
	})}
	rs.emitRoundStart(1, 0, 0, []int{3})
	if _, err := rs.postFold(1, 1, 2, 1, nil); err != nil {
		t.Fatal(err)
	}
	rs.emitRoundStart(1, 1, 2, []int{4})
	if !slices.Equal(rounds, []int{0, 1}) {
		t.Fatalf("sequential round starts observed rounds %v, want [0 1]", rounds)
	}
	nest = true
	defer func() {
		if recover() == nil {
			t.Fatal("a round start emitted while a fold's observers ran did not panic")
		}
	}()
	rs.postFold(1, 2, 3, 1, nil)
}

// TestDispatchLoopsOneInFlight pins the invariant every pacer loop keeps its
// state under (oneInFlight). Each loop kind panics when asked to dispatch
// while its last dispatch is undelivered, and every pacer runs its whole
// budget over a fabric that delivers after Dispatch returns, with each
// cohort intact until its delivery.
func TestDispatchLoopsOneInFlight(t *testing.T) {
	cfg := baseCfg()
	cfg.Rounds = 12
	cfg.BufferK = 4
	mustPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s dispatched a second round with one in flight", what)
			}
		}()
		f()
	}
	// newRun builds a run over a deferred fabric whose first deliveries
	// stay queued on its clock, which nothing runs.
	newRun := func(t *testing.T, sel selector) *runState {
		env := testEnv(t, 0, cfg)
		comm := NewComm(env.cfg.Codec, env.shapes)
		rs := &runState{fab: &deferredFabric{Fabric: env.Fabric(), t: t}, cfg: env.cfg, root: rng.New(5), comm: comm, in: inbox{comm: comm}, sel: sel}
		rs.rule = updateRules["avg"]()
		if err := rs.rule.Init(rs); err != nil {
			t.Fatal(err)
		}
		if err := sel.Init(rs); err != nil {
			t.Fatal(err)
		}
		return rs
	}
	t.Run("sync loop", func(t *testing.T) {
		sel := &randomSelector{}
		l := newSyncLoop(newRun(t, sel), sel)
		l.step(0)
		mustPanic(t, "the sync loop", func() { l.step(0) })
	})
	t.Run("tier loop", func(t *testing.T) {
		sel := &randomSelector{}
		rs := newRun(t, sel)
		tiers, err := rs.partition()
		if err != nil {
			t.Fatal(err)
		}
		loops := newTierLoops(rs, sel, tiers.M())
		loops[0].start()
		loops[1].start() // another tier's round may be in flight meanwhile
		mustPanic(t, "tier 0's loop", loops[0].start)
	})
	t.Run("client loop", func(t *testing.T) {
		rs := newRun(t, allSelector{})
		b := &arrivalBuffer{rs: rs, k: 1, loops: make([]clientLoop, rs.fab.NumClients())}
		b.loop(0).start()
		b.loop(1).start()
		mustPanic(t, "client 0's loop", b.loop(0).start)
	})

	fedbuff, err := Compose("fedasync", "", "fedbuff", "", "fedbuff")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{Methods["fedavg"], Methods["tifl"], Methods["fedavg-oversel"], Methods["fedat"], Methods["fedasync"], fedbuff} {
		t.Run(m.String(), func(t *testing.T) {
			env := testEnv(t, 0, cfg)
			run, err := m.RunOn(&deferredFabric{Fabric: env.Fabric(), t: t}, env.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if run.GlobalRounds != cfg.Rounds {
				t.Fatalf("%d of %d global updates", run.GlobalRounds, cfg.Rounds)
			}
		})
	}
}

// startTimes is a fabric that checks the times dispatches and probes start
// at never decrease. They are the times the population's downloads start
// at, which its server links take as a floor no later transfer starts
// before (simnet.Population.DownloadArrival).
type startTimes struct {
	Fabric
	t      *testing.T
	last   float64
	starts int
}

func (f *startTimes) saw(what string, now float64) {
	if now < f.last {
		f.t.Errorf("a %s starts at %v, after one at %v", what, now, f.last)
	}
	f.last = now
	f.starts++
}

func (f *startTimes) Dispatch(comm *Comm, cohort []int, now float64, global []float64, lc LocalConfig, deliver func([]TrainResult, error)) {
	f.saw("dispatch", now)
	f.Fabric.Dispatch(comm, cohort, now, global, lc, deliver)
}

func (f *startTimes) Probe(comm *Comm, ids []int, now float64, w []float64, replyBytes int) (float64, error) {
	f.saw("probe", now)
	return f.Fabric.Probe(comm, ids, now, w, replyBytes)
}

// TestDispatchTimesNeverDecrease runs every registry method and a composed
// fedbuff method, on a static population and under churn, drift and
// runtime re-tiering, and requires the start times of dispatches and
// probes never to decrease — the premise that lets the population's links
// forget the reservations that end before the latest one.
func TestDispatchTimesNeverDecrease(t *testing.T) {
	fedbuff, err := Compose("fedasync", "", "fedbuff", "", "fedbuff")
	if err != nil {
		t.Fatal(err)
	}
	methods := []Method{fedbuff}
	for _, name := range MethodNames() {
		methods = append(methods, Methods[name])
	}
	for _, dynamic := range []bool{false, true} {
		for _, m := range methods {
			name := m.Name
			if dynamic {
				name += "/dynamics"
			}
			t.Run(name, func(t *testing.T) {
				cfg := baseCfg()
				cfg.Rounds, cfg.BufferK = 24, 4
				var env *Env
				if dynamic {
					cfg.RetierEvery = 4
					env = dynamicEnv(t, cfg)
				} else {
					env = testEnv(t, 0, cfg)
				}
				fab := &startTimes{Fabric: env.Fabric(), t: t}
				if _, err := m.RunOn(fab, env.cfg); err != nil {
					t.Fatal(err)
				}
				if fab.starts == 0 {
					t.Fatal("nothing was dispatched")
				}
			})
		}
	}
}

// TestEnvHoldsNoResultsAfterDispatch: the simulated fabric clears the
// environment's results buffer once deliver returns, so nothing the
// environment keeps points at a run's pooled weights after the run. Held
// across runs, the last cohort's buffers kept a finished run's weight pool
// reachable: on the benchmark's CNN workload, where set-up runs a warm-up
// before the timed run, that read as about 2.5 MB more peak RSS.
func TestEnvHoldsNoResultsAfterDispatch(t *testing.T) {
	cfg := baseCfg()
	cfg.Rounds = 6
	env := testEnv(t, 0, cfg)
	for _, name := range []string{"fedavg", "fedat", "fedasync"} {
		mustRun(t, name, env)
		if len(env.results) == 0 {
			t.Fatalf("%s: no results buffer was grown", name)
		}
		for i, r := range env.results {
			if r.Weights != nil || r.slot != 0 {
				t.Fatalf("%s: results[%d] still holds an update after the run", name, i)
			}
		}
		env.ResetState()
	}
}
