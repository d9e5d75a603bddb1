package experiments

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// microPreset builds a minimal preset for scheduler tests. Presets that
// differ only in Name produce identical simulations — Name feeds only the
// cache key — so each test gets a disjoint cache namespace without
// touching the Tiny cells other tests share.
func microPreset(name string) Preset {
	return Preset{
		Name:         name,
		Clients:      8,
		LargeClients: 10,
		Rounds:       6,
		LargeRounds:  6,
		EvalEvery:    2,
		SmoothWindow: 2,
		DataScale:    dataset.ScaleSmall,
		Seed:         7,
	}
}

// TestSchedulerByteIdenticalAndExactlyOnce is the scheduler's core
// contract: two experiments that share simulation cells (Figure 6 and the
// theory check both need FedAT on cifar10(#2) and sent140(#2)) run
// concurrently, and (a) their reports are byte-identical to a serial
// -workers 1 run, (b) every unique cell is simulated exactly once despite
// the concurrent requests.
func TestSchedulerByteIdenticalAndExactlyOnce(t *testing.T) {
	defer SetWorkers(0)

	// Serial reference: one worker, experiments back to back.
	SetWorkers(1)
	ps := microPreset("sched-serial")
	base := SimulationCount()
	fig6Serial, err := Figure6(ps)
	if err != nil {
		t.Fatal(err)
	}
	theorySerial, err := TheoryValidation(ps)
	if err != nil {
		t.Fatal(err)
	}
	serialSims := SimulationCount() - base

	// Concurrent: both experiments at once on a fresh namespace with a
	// parallel worker pool.
	SetWorkers(8)
	pc := microPreset("sched-conc")
	base = SimulationCount()
	var (
		wg         sync.WaitGroup
		fig6Conc   *Report
		theoryConc *Report
		errA, errB error
	)
	wg.Add(2)
	go func() { defer wg.Done(); fig6Conc, errA = Figure6(pc) }()
	go func() { defer wg.Done(); theoryConc, errB = TheoryValidation(pc) }()
	wg.Wait()
	if errA != nil {
		t.Fatal(errA)
	}
	if errB != nil {
		t.Fatal(errB)
	}
	concSims := SimulationCount() - base

	if got, want := fig6Conc.String(), fig6Serial.String(); got != want {
		t.Fatalf("fig6 report differs between concurrent and serial execution:\n--- serial ---\n%s\n--- concurrent ---\n%s", want, got)
	}
	if got, want := theoryConc.String(), theorySerial.String(); got != want {
		t.Fatalf("theory report differs between concurrent and serial execution:\n--- serial ---\n%s\n--- concurrent ---\n%s", want, got)
	}

	// Figure 6 needs 3 weighted + 3 uniform FedAT cells; the theory check's
	// two cells are a subset of the weighted three. Exactly-once dedup must
	// hold both serially (cache) and concurrently (singleflight).
	const uniqueCells = 6
	if serialSims != uniqueCells {
		t.Fatalf("serial pass simulated %d cells, want %d", serialSims, uniqueCells)
	}
	if concSims != uniqueCells {
		t.Fatalf("concurrent pass simulated %d cells, want %d (shared cells re-simulated?)", concSims, uniqueCells)
	}
}

// TestSchedulerErrorNotPoisoned checks that a failed cell is evicted so a
// later request retries instead of inheriting a stale error forever.
func TestSchedulerErrorNotPoisoned(t *testing.T) {
	p := microPreset("sched-err")
	spec := dsSpec{name: "no-such-dataset", classesPerClient: 2}
	if _, err := cachedRunMethods(p, spec, []string{"fedat"}, "", nil); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	// The failed cell must not satisfy the next request from the cache: the
	// retry must run (and fail) afresh rather than panic or hang.
	if _, err := cachedRunMethods(p, spec, []string{"fedat"}, "", nil); err == nil {
		t.Fatal("unknown dataset accepted on retry")
	}
	if _, err := cachedRunMethods(p, spec, []string{"no-such-method"}, "", nil); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestSchedulerMeta checks the per-cell metadata the JSON renderer
// publishes: every simulated cell appears with its key, a hit count that
// grows as later requests are served from cache, and timing fields.
func TestSchedulerMeta(t *testing.T) {
	p := microPreset("sched-meta")
	hitsBase := CacheHitCount()
	// Figure 6 schedules its whole batch once and collects via cellRun, so
	// a fresh run records no hits. Prefetch-then-collect experiments
	// (Table 1, Figure 2) re-request their own cells and DO count hits on
	// a fresh run — the metric is request-level by design (see cacheHits).
	if _, err := Figure6(p); err != nil {
		t.Fatal(err)
	}
	if got := CacheHitCount() - hitsBase; got != 0 {
		t.Fatalf("fresh Figure6 recorded %d cache hits, want 0", got)
	}
	if _, err := Figure6(p); err != nil {
		t.Fatal(err)
	}
	// The re-run requests the same 6 cells; all must be absorbed by the
	// cache.
	if got := CacheHitCount() - hitsBase; got != 6 {
		t.Fatalf("re-run Figure6 recorded %d cache hits, want 6", got)
	}
	meta := SchedulerMeta()
	if meta.Simulations != SimulationCount() || meta.CacheHits != CacheHitCount() {
		t.Fatalf("meta counters diverge: %+v", meta)
	}
	cells := map[string]bool{}
	totalHits := int64(0)
	for i, c := range meta.Cells {
		cells[c.Key] = true
		totalHits += c.Hits
		if i > 0 && meta.Cells[i-1].Key >= c.Key {
			t.Fatalf("cells not in sorted key order: %q then %q", meta.Cells[i-1].Key, c.Key)
		}
	}
	for _, key := range []string{
		"sched-meta|cifar10(#2)|false|fedat|",
		"sched-meta|cifar10(#2)|false|fedat|agg=uniform",
	} {
		if !cells[key] {
			t.Fatalf("cell %q missing from scheduler meta (have %v)", key, cells)
		}
	}
	if totalHits < 6 {
		t.Fatalf("per-cell hits sum to %d, want >= 6", totalHits)
	}
}

// TestSchedulerWorkers covers the worker-count plumbing.
func TestSchedulerWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if w := schedulerWorkers(10); w != 3 {
		t.Fatalf("schedulerWorkers(10) with cap 3 = %d", w)
	}
	if w := schedulerWorkers(2); w != 2 {
		t.Fatalf("schedulerWorkers(2) with cap 3 = %d", w)
	}
	SetWorkers(0)
	if w := schedulerWorkers(0); w != 1 {
		t.Fatalf("schedulerWorkers(0) = %d, want 1", w)
	}
	SetWorkers(-5) // negative resets to auto
	if w := schedulerWorkers(1); w != 1 {
		t.Fatalf("schedulerWorkers(1) after negative SetWorkers = %d", w)
	}
	SetWorkers(math.MaxInt) // beyond int32 saturates instead of wrapping
	if w := schedulerWorkers(7); w != 7 {
		t.Fatalf("schedulerWorkers(7) after huge SetWorkers = %d", w)
	}
}
