package rng_test

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/testutil"
)

// TestPermIntoKeepsCallerStreamOnStack: called from another package, the
// way a training round shuffles its epoch order with a by-value schedule
// stream, PermInto allocates nothing — the caller's RNG stays on its stack.
// Inlined across the package boundary, the call to the generic loop would
// lose its escape information and move that RNG to the heap, one
// allocation per local epoch.
func TestPermIntoKeepsCallerStreamOnStack(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race instruments allocations")
	}
	root := rng.New(7)
	order := make([]int, 64)
	round := uint64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		sched := root.SplitLabeledValue(round)
		sched.PermInto(order)
		round++
	}); allocs != 0 {
		t.Fatalf("PermInto on a stack stream allocates %.1f times per call", allocs)
	}
}
