package fl

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestNovelCompositionsRun assembles method variants that exist nowhere in
// the registry purely from policy keys and checks they train end to end —
// the point of the composable API.
func TestNovelCompositionsRun(t *testing.T) {
	variants := []Method{
		// Over-selection inside FedAT's tiered async loop.
		{Name: "FedAT+oversel", Select: "oversel", Pace: "tier", Update: "eq5", Local: LocalPolicy{Prox: true}},
		// TiFL's credit selection feeding the Eq. 5 cross-tier fold.
		{Name: "TiFL+eq5fold", Select: "tifl", Pace: "sync", Update: "eq5"},
		// Wait-free client loops folding into per-tier models.
		{Name: "Async+eq5", Select: "all", Pace: "client", Update: "eq5"},
		// Untiered sync selection routed into per-tier models by each
		// client's profiled tier (regression: tier -1 must not collapse
		// into tier 0, which freezes the Eq. 5 blend near w0).
		{Name: "FedAvg+eq5", Select: "random", Pace: "sync", Update: "eq5"},
		// FedAvg with the uniform-weight ablation rule.
		{Name: "FedAvg+uniform", Select: "random", Pace: "sync", Update: "uniform"},
	}
	for _, m := range variants {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			cfg := baseCfg()
			cfg.Rounds = 20
			run, err := m.Run(testEnv(t, 0, cfg))
			if err != nil {
				t.Fatal(err)
			}
			if run.GlobalRounds == 0 {
				t.Fatal("no global rounds completed")
			}
			if len(run.Points) == 0 {
				t.Fatal("no evaluations recorded")
			}
			if run.Method != m.Name {
				t.Fatalf("run labelled %q, want %q", run.Method, m.Name)
			}
			if best := run.BestAcc(); best < 0.15 {
				t.Fatalf("composition failed to learn: %.3f", best)
			}
		})
	}
}

// TestCompositionsDeterministic re-runs a novel composition on identical
// environments and requires bit-identical metrics — compositions inherit
// the repository-wide reproducibility guarantee.
func TestCompositionsDeterministic(t *testing.T) {
	m := Method{Name: "FedAT+oversel", Select: "oversel", Pace: "tier", Update: "eq5", Local: LocalPolicy{Prox: true}}
	run := func() *metrics.Run {
		cfg := baseCfg()
		cfg.Rounds = 12
		r, err := m.Run(testEnv(t, 2, cfg))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.UpBytes != b.UpBytes || len(a.Points) != len(b.Points) {
		t.Fatalf("composition not deterministic: up=%d/%d points=%d/%d",
			a.UpBytes, b.UpBytes, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d diverged: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

// TestCompositionValidation checks that malformed compositions surface as
// errors, not panics.
func TestCompositionValidation(t *testing.T) {
	cases := []struct {
		m    Method
		want string
	}{
		{Method{Name: "X", Select: "bogus", Pace: "sync", Update: "avg"}, "unknown selector"},
		{Method{Name: "X", Select: "random", Pace: "bogus", Update: "avg"}, "unknown pacer"},
		{Method{Name: "X", Select: "random", Pace: "sync", Update: "bogus"}, "unknown update rule"},
		{Method{Name: "X", Select: "all", Pace: "sync", Update: "avg"}, "needs a round selector"},
		{Method{Name: "X", Select: "all", Pace: "tier", Update: "avg"}, "needs a tier selector"},
		{Method{Name: "X", Select: "oversel", Pace: "client", Update: "staleness"}, "no cohort selection"},
		{Method{Select: "random", Pace: "sync", Update: "avg"}, "no name"},
	}
	cfg := baseCfg()
	env := testEnv(t, 0, cfg)
	for _, c := range cases {
		_, err := c.m.Run(env)
		if err == nil {
			t.Errorf("%s/%s/%s: invalid composition accepted", c.m.Select, c.m.Pace, c.m.Update)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %q does not mention %q", err, c.want)
		}
	}
}

// TestComposeRejectsUnknownKeys: Compose looks each policy key up through
// the lookup Start uses, so a mistyped key fails when the method is
// composed — before fedserver waits for its clients — and so does -agg's
// removed rule:func:alpha form. Every registry method resolves the same
// way, and the run-level staleness function is checked when a run starts.
func TestComposeRejectsUnknownKeys(t *testing.T) {
	for _, c := range []struct{ sel, pace, update, want string }{
		{"bogus", "", "", "unknown selector"},
		{"", "bogus", "", "unknown pacer"},
		{"", "", "bogus", "unknown update rule"},
		{"", "", "fedasync:poly:0.5", "unknown update rule"},
	} {
		if _, err := Compose("fedasync", c.sel, c.pace, c.update, ""); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compose(select=%q, pacer=%q, agg=%q) = %v, want an error naming %q", c.sel, c.pace, c.update, err, c.want)
		}
	}
	for name, m := range Methods {
		if _, _, _, err := m.policies(); err != nil {
			t.Errorf("registry method %q: %v", name, err)
		}
	}
	if _, err := Compose("fedasync", "", "fedbuff", "median", "FedBuff-median"); err != nil {
		t.Errorf("a valid composition was rejected: %v", err)
	}

	cfg := baseCfg()
	cfg.Staleness.Func = "bogus"
	if _, err := Methods["fedasync"].Run(testEnv(t, 0, cfg)); err == nil || !strings.Contains(err.Error(), "unknown staleness weight function") {
		t.Errorf("run with staleness function %q: err = %v", cfg.Staleness.Func, err)
	}
}

// TestTieringErrorPropagates forces the latency partition to fail (more
// tiers than clients) and requires the error to come back through Run —
// this used to be a panic inside FedAT and TiFL.
func TestTieringErrorPropagates(t *testing.T) {
	for _, name := range []string{"fedat", "tifl"} {
		cfg := baseCfg()
		cfg.NumTiers = 50 // testEnv has 20 clients
		env := testEnv(t, 0, cfg)
		if _, err := Methods[name].Run(env); err == nil {
			t.Errorf("%s: impossible tiering accepted", name)
		}
	}
}

// TestObserverEventStream subscribes an observer and cross-checks the
// event stream against the recorded run: every fold advances the round
// count, every Eval event is exactly one recorded point.
func TestObserverEventStream(t *testing.T) {
	var starts, folds, dones, drops int
	var evals []EvalEvent
	obs := ObserverFunc(func(ev Event) {
		switch e := ev.(type) {
		case RoundStartEvent:
			starts++
			if len(e.Clients) == 0 {
				t.Error("round started with no clients")
			}
		case ClientDoneEvent:
			dones++
			if e.Dropped {
				drops++
			}
		case TierFoldEvent:
			folds++
			if e.Kept <= 0 {
				t.Errorf("fold with %d updates", e.Kept)
			}
		case EvalEvent:
			evals = append(evals, e)
		}
	})
	cfg := baseCfg()
	cfg.Rounds = 15
	run := mustRun(t, "fedat", testEnv(t, 0, cfg), obs)

	if folds != run.GlobalRounds {
		t.Errorf("%d fold events, run records %d global rounds", folds, run.GlobalRounds)
	}
	if starts < folds {
		t.Errorf("%d round starts < %d folds", starts, folds)
	}
	if dones < folds {
		t.Errorf("%d client-done events < %d folds", dones, folds)
	}
	if len(evals) != len(run.Points) {
		t.Fatalf("%d eval events, run records %d points", len(evals), len(run.Points))
	}
	for i, e := range evals {
		p := run.Points[i]
		if e.Round != p.Round || e.Time != p.Time || e.Result.Acc != p.Acc ||
			e.UpBytes != p.UpBytes || e.DownBytes != p.DownBytes {
			t.Fatalf("eval event %d disagrees with recorded point: %+v vs %+v", i, e, p)
		}
	}
}

// TestClientPacingIgnoresBufferK: "client" is the wait-free loop at K = 1
// as a registry datum, not as a default — a configured BufferK (which the
// "fedbuff" key obeys) must not turn per-arrival folding into buffering.
func TestClientPacingIgnoresBufferK(t *testing.T) {
	folds := func(pace string) (n, maxKept int) {
		cfg := baseCfg()
		cfg.Rounds = 12
		cfg.BufferK = 7
		m := Methods["fedasync"]
		m.Pace = pace
		_, err := m.Run(testEnv(t, 0, cfg), ObserverFunc(func(ev Event) {
			if tf, ok := ev.(TierFoldEvent); ok {
				n++
				if tf.Kept > maxKept {
					maxKept = tf.Kept
				}
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		return n, maxKept
	}
	if n, kept := folds("client"); n == 0 || kept != 1 {
		t.Fatalf("client pacing with BufferK=7: %d folds, largest of %d updates; want every fold to hold exactly 1", n, kept)
	}
	if n, kept := folds("fedbuff"); n == 0 || kept != 7 {
		t.Fatalf("fedbuff pacing with BufferK=7: %d folds, largest of %d updates; want 7", n, kept)
	}
}

// TestRebaseContract pins what the hierarchy relies on, for every registry
// rule: a Rebaser's Global() becomes exactly the merged model while its
// update count survives, and asofed — whose global is derived from
// per-client copies — is not a Rebaser at all.
func TestRebaseContract(t *testing.T) {
	cfg := baseCfg().withDefaults()
	env := testEnv(t, 0, cfg)
	for _, key := range slices.Sorted(maps.Keys(updateRules)) {
		t.Run(key, func(t *testing.T) {
			rule := updateRules[key]()
			rs := &runState{fab: env.Fabric(), cfg: cfg}
			if err := rule.Init(rs); err != nil {
				t.Fatal(err)
			}
			rb, ok := rule.(Rebaser)
			if key == "asofed" {
				if ok {
					t.Fatal("asofed must not be a Rebaser")
				}
				return
			}
			if !ok {
				t.Fatalf("rule %q is not a Rebaser", key)
			}
			dim := len(rule.Global())
			if _, err := rule.Fold(foldOf(0, []core.ClientUpdate{{Weights: fuzzVec(3, dim), N: 5, Client: 1}})); err != nil {
				t.Fatal(err)
			}
			if rule.Rounds() != 1 {
				t.Fatalf("one fold left Rounds() = %d", rule.Rounds())
			}
			w := fuzzVec(4, dim)
			g := rb.Rebase(w)
			for i := range w {
				if g[i] != w[i] || rule.Global()[i] != w[i] {
					t.Fatalf("after Rebase, global[%d] = %v / %v, want %v", i, g[i], rule.Global()[i], w[i])
				}
			}
			if rule.Rounds() != 1 {
				t.Fatalf("Rebase moved Rounds() to %d", rule.Rounds())
			}
		})
	}
}
