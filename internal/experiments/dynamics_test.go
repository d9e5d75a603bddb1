package experiments

import "testing"

// TestDynamicsTiny pins the dynamics experiment's headline claims at the
// tiny preset. Runs are deterministic, so the comparisons are fixed for a
// given code version — if a legitimate engine change flips one, the
// experiment's note (and this test) need re-examining together.
func TestDynamicsTiny(t *testing.T) {
	rep := tinyReport(t, "dynamics")
	if len(rep.Runs) != 6 {
		t.Fatalf("dynamics kept %d runs, want 6", len(rep.Runs))
	}
	static, retier := rep.Runs["fedat/static"], rep.Runs["fedat/retier"]

	// The headline: under drift+churn, periodic re-tiering beats static
	// tiers on accuracy over the shared virtual-time budget.
	if retier.BestAcc() <= static.BestAcc() {
		t.Fatalf("re-tiering did not beat static tiers: best %.3f vs %.3f",
			retier.BestAcc(), static.BestAcc())
	}
	if retier.Retiers == 0 || retier.TierMigrations == 0 {
		t.Fatalf("retier run recorded no activity: %d passes, %d migrations",
			retier.Retiers, retier.TierMigrations)
	}
	if static.Retiers != 0 || static.TierMigrations != 0 {
		t.Fatalf("static run recorded retier activity: %d/%d", static.Retiers, static.TierMigrations)
	}

	// Synchronous baselines ignore RetierEvery: their two modes must be
	// byte-equal in every headline number (the no-op control).
	for _, m := range []string{"tifl", "fedavg"} {
		a, b := rep.Runs[m+"/static"], rep.Runs[m+"/retier"]
		if a.BestAcc() != b.BestAcc() || a.UpBytes != b.UpBytes || a.GlobalRounds != b.GlobalRounds {
			t.Fatalf("%s: RetierEvery perturbed a synchronous run", m)
		}
		if b.Retiers != 0 {
			t.Fatalf("%s: synchronous run performed %d retier passes", m, b.Retiers)
		}
	}
}
