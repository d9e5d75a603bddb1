package fl

import (
	"fmt"
	"reflect"
	"testing"
)

// TestAllMethodsDeterministic runs every registered method twice on
// identical environments and requires bit-identical metrics — the
// repository-wide reproducibility guarantee (parallel client training, RNG
// splitting and event ordering must all be order-independent).
func TestAllMethodsDeterministic(t *testing.T) {
	for _, name := range MethodNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() *[2]int64 {
				cfg := baseCfg()
				cfg.Rounds = 12
				env := testEnv(t, 2, cfg)
				r := mustRun(t, name, env)
				sig := [2]int64{r.UpBytes, int64(r.GlobalRounds)}
				for _, p := range r.Points {
					sig[0] += int64(p.Acc * 1e12)
					sig[1] += int64(p.Var * 1e12)
				}
				return &sig
			}
			a, b := run(), run()
			if *a != *b {
				t.Fatalf("%s not deterministic: %v vs %v", name, *a, *b)
			}
		})
	}
}

// TestEnvReuseDeterministic pins the reuse contract the benchmarks lean
// on: after ResetState, a second run on the SAME Env is bit-identical to a
// run on a freshly built one — no optimizer state, dropout-mask position,
// link reservation or delay-stream position survives a run. The LSTM case
// is the one with a stochastic layer: its mask stream restarts per (client,
// round), so a worker that already trained replays the same masks.
func TestEnvReuseDeterministic(t *testing.T) {
	cfg := baseCfg()
	cfg.Rounds = 10
	mlp := func() *Env { return testEnv(t, 2, cfg) }
	lstm := func() *Env {
		c := baseSourceCase(cfg.Seed)
		c.useLSTM()
		c.rcfg = cfg
		return c.retained(t)
	}
	for _, tc := range []struct {
		name, method string
		build        func() *Env
	}{
		{"fedavg", "fedavg", mlp}, {"fedprox", "fedprox", mlp}, {"fedat", "fedat", mlp},
		{"fedasync", "fedasync", mlp}, {"asofed", "asofed", mlp},
		{"lstm-fedat", "fedat", lstm}, {"lstm-fedprox", "fedprox", lstm},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := mustRun(t, tc.method, tc.build())
			env := tc.build()
			first := mustRun(t, tc.method, env)
			env.ResetState()
			second := mustRun(t, tc.method, env)
			if len(fresh.Points) == 0 {
				t.Fatal("run recorded no evaluations; the comparison is vacuous")
			}
			if !reflect.DeepEqual(first, fresh) {
				t.Fatalf("%s: first run on reusable env differs from fresh env:\n%+v\nvs\n%+v", tc.name, first, fresh)
			}
			if !reflect.DeepEqual(second, fresh) {
				t.Fatalf("%s: run after ResetState differs from fresh env:\n%+v\nvs\n%+v", tc.name, second, fresh)
			}
		})
	}
}

// TestMethodsIsolatedFromEachOther ensures one method's run does not leak
// state into another's when sharing the same seed (fresh environments are
// rebuilt, RNG streams are method-labelled).
func TestMethodsIsolatedFromEachOther(t *testing.T) {
	cfg := baseCfg()
	cfg.Rounds = 8
	// Run FedAvg alone.
	alone := mustRun(t, "fedavg", testEnv(t, 0, cfg))
	// Run FedAT first, then FedAvg.
	mustRun(t, "fedat", testEnv(t, 0, cfg))
	after := mustRun(t, "fedavg", testEnv(t, 0, cfg))
	if alone.UpBytes != after.UpBytes || alone.BestAcc() != after.BestAcc() {
		t.Fatalf("FedAvg results depend on a preceding FedAT run: %v/%v vs %v/%v",
			alone.UpBytes, alone.BestAcc(), after.UpBytes, after.BestAcc())
	}
}

// TestSeedChangesResults guards against accidentally ignoring the seed.
func TestSeedChangesResults(t *testing.T) {
	mk := func(seed uint64) float64 {
		cfg := baseCfg()
		cfg.Rounds = 10
		cfg.Seed = seed
		env := testEnv(t, 2, cfg)
		return mustRun(t, "fedat", env).BestAcc()
	}
	a, b := mk(1), mk(2)
	if a == b {
		// Accuracies could collide; check the byte counters too before
		// declaring failure.
		cfg := baseCfg()
		cfg.Rounds = 10
		cfg.Seed = 1
		r1 := mustRun(t, "fedat", testEnv(t, 2, cfg))
		cfg.Seed = 2
		r2 := mustRun(t, "fedat", testEnv(t, 2, cfg))
		if r1.UpBytes == r2.UpBytes && fmt.Sprint(r1.Points) == fmt.Sprint(r2.Points) {
			t.Fatal("different seeds produced identical runs")
		}
	}
}

// TestDropoutsReduceParticipants injects universal dropout and checks the
// system degrades gracefully rather than deadlocking: runs end, and rounds
// that lose every client yield no update instead of a hang.
func TestDropoutsReduceParticipants(t *testing.T) {
	cfg := baseCfg()
	cfg.Rounds = 20
	// Force ALL clients to drop very early.
	dropAll := func() *dropFabric {
		fab := newDropFabric(testEnv(t, 0, cfg))
		for id := range fab.NumClients() {
			fab.drop(id, 3.0)
		}
		return fab
	}
	run := mustRunOn(t, "fedavg", dropAll(), cfg)
	if run.GlobalRounds > 3 {
		t.Fatalf("rounds kept completing after universal dropout: %d", run.GlobalRounds)
	}
	run2 := mustRunOn(t, "fedat", dropAll(), cfg)
	if run2.GlobalRounds > 10 {
		t.Fatalf("FedAT kept updating after universal dropout: %d", run2.GlobalRounds)
	}
}
