package fl

import (
	"slices"
	"testing"
)

func TestOverSelectionCompletesAndLearns(t *testing.T) {
	cfg := baseCfg()
	env := testEnv(t, 0, cfg)
	run := mustRun(t, "fedavg-oversel", env)
	if run.GlobalRounds == 0 {
		t.Fatal("no rounds completed")
	}
	if run.BestAcc() < 0.18 {
		t.Fatalf("over-selection failed to learn: %.3f", run.BestAcc())
	}
}

func TestOverSelectionShortensRounds(t *testing.T) {
	// Dropping the slowest 30% of selected clients means the round barrier
	// is an earlier order statistic: per-update time must not exceed plain
	// FedAvg's.
	cfg := baseCfg()
	cfg.Rounds = 30
	envA := testEnv(t, 0, cfg)
	plain := mustRun(t, "fedavg", envA)
	envB := testEnv(t, 0, cfg)
	over := mustRun(t, "fedavg-oversel", envB)
	pa, po := plain.SecPerUpdate(), over.SecPerUpdate()
	if po > pa*1.02 {
		t.Fatalf("over-selection per-update time %.2fs not below FedAvg's %.2fs", po, pa)
	}
	// ...but it uploads more per update (the discarded 30% still trained).
	ba := float64(plain.UpBytes) / float64(plain.GlobalRounds)
	bo := float64(over.UpBytes) / float64(over.GlobalRounds)
	if bo <= ba {
		t.Fatalf("over-selection upload/update %.0fB not above FedAvg's %.0fB", bo, ba)
	}
}

func TestMisTieringScramblesTiers(t *testing.T) {
	cfg := baseCfg()
	env := testEnv(t, 0, cfg)
	clean := mustTiers(t, env)

	cfgBad := baseCfg()
	cfgBad.MisTierFrac = 0.5
	envBad := testEnv(t, 0, cfgBad)
	dirty := mustTiers(t, envBad)

	moved := 0
	cleanAssign, dirtyAssign := clean.Assignment(), dirty.Assignment()
	for id := range cleanAssign {
		if cleanAssign[id] != dirtyAssign[id] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("MisTierFrac=0.5 changed no tier assignments")
	}
	// Partition invariants still hold under corruption.
	seen := make([]bool, len(dirtyAssign))
	for _, members := range dirty.Members {
		for _, id := range members {
			if seen[id] {
				t.Fatal("client in two tiers after mis-tiering")
			}
			seen[id] = true
		}
	}
}

func TestFedATRunsUnderMisTiering(t *testing.T) {
	cfg := baseCfg()
	cfg.MisTierFrac = 0.4
	cfg.Rounds = 30
	env := testEnv(t, 0, cfg)
	run := mustRun(t, "fedat", env)
	if run.GlobalRounds == 0 {
		t.Fatal("mis-tiered FedAT made no progress")
	}
	if run.BestAcc() < 0.15 {
		t.Fatalf("mis-tiered FedAT failed to learn: %.3f", run.BestAcc())
	}
}

func TestMisTieringDeterministic(t *testing.T) {
	cfg := baseCfg()
	cfg.MisTierFrac = 0.3
	a := mustTiers(t, testEnv(t, 0, cfg))
	b := mustTiers(t, testEnv(t, 0, cfg))
	if !slices.Equal(a.Assignment(), b.Assignment()) {
		t.Fatal("mis-tiering not deterministic for a fixed seed")
	}
}
