package fl

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/tiering"
)

// mustRun executes a registry method, failing the test on any composition
// or aggregation error.
func mustRun(t testing.TB, name string, env *Env, obs ...Observer) *metrics.Run {
	t.Helper()
	return mustRunOn(t, name, env.Fabric(), env.Cfg, obs...)
}

// mustRunOn is mustRun on a given fabric.
func mustRunOn(t testing.TB, name string, fab Fabric, cfg RunConfig, obs ...Observer) *metrics.Run {
	t.Helper()
	m, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.RunOn(fab, cfg, obs...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return run
}

// dropFabric is an environment's simulated fabric with permanent drops
// scripted on top of the population's own. From its drop time on, a
// scripted client is unavailable to selection, and its materialized runtime
// carries the same drop time, so the round it is training in is lost.
// Drops may be scripted mid-run, from an observer.
type dropFabric struct {
	Fabric
	pop   *simnet.Population
	drops map[int]float64
}

func newDropFabric(env *Env) *dropFabric {
	return &dropFabric{Fabric: env.Fabric(), pop: env.pop, drops: map[int]float64{}}
}

// drop makes client id leave for good at time at.
func (f *dropFabric) drop(id int, at float64) {
	rt := f.pop.Materialize(id)
	rt.DropAt = min(rt.DropAt, at)
	f.drops[id] = rt.DropAt
}

func (f *dropFabric) dropped(id int, t float64) bool {
	at, ok := f.drops[id]
	return ok && t >= at
}

func (f *dropFabric) Available(id int, now float64) bool {
	return !f.dropped(id, now) && f.Fabric.Available(id, now)
}

func (f *dropFabric) NextAvailable(id int, now float64) float64 {
	t := f.Fabric.NextAvailable(id, now)
	if f.dropped(id, t) {
		return math.Inf(1)
	}
	return t
}

// asyncAt builds the async family's shared rule state directly, skipping
// Init: the tests that construct rules by hand pin a model and a version.
func asyncAt(global []float64, version int, alpha float64, sc StalenessConfig) asyncState {
	return asyncState{modelState: modelState{global: global, version: version}, alpha: alpha, sc: sc}
}

// mustTiers profiles the environment's latency tiers.
func mustTiers(t testing.TB, env *Env) *tiering.Tiers {
	t.Helper()
	tiers, err := profileTiers(env)
	if err != nil {
		t.Fatal(err)
	}
	return tiers
}
