package fl

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/tiering"
)

// mustRun executes a registry method, failing the test on any composition
// or aggregation error.
func mustRun(t testing.TB, name string, env *Env, obs ...Observer) *metrics.Run {
	t.Helper()
	run, err := Run(name, env, obs...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return run
}

// asyncAt builds the async family's shared rule state directly, skipping
// Init: the tests that construct rules by hand pin a model and a version.
func asyncAt(global []float64, version int, alpha float64, sc StalenessConfig) asyncState {
	return asyncState{modelState: modelState{global: global, version: version}, alpha: alpha, sc: sc}
}

// mustTiers profiles the environment's latency tiers.
func mustTiers(t testing.TB, env *Env) *tiering.Tiers {
	t.Helper()
	tiers, err := ProfileTiers(env)
	if err != nil {
		t.Fatal(err)
	}
	return tiers
}
