package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/simnet"
)

// microRuns numbers microPreset's namespaces.
var microRuns atomic.Int64

// microPreset builds a minimal preset for scheduler tests. Presets that
// differ only in Name produce identical simulations — Name feeds only the
// cache key — so each call gets a disjoint cache namespace without
// touching the tiny cells other tests share, and a test repeated in one
// process (go test -count=N) starts from a cold cache every time.
func microPreset(name string) Preset {
	return Preset{
		Name:         fmt.Sprintf("%s#%d", name, microRuns.Add(1)),
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

// topologyCells are the two cell kinds beyond a plain flat run: an edge:2
// hierarchy over the large population (five clients an edge, one a tier)
// and a flat run with explicit tier sizes, as Figure 10 builds it.
func topologyCells(p Preset) []cell {
	sizes := fracSizes(p.Clients, figure10Configs[1].frac)
	return []cell{
		{p: p, d: dsSpec{name: "cifar10", classesPerClient: 2, large: true}, method: "fedat",
			variant: "edge2/sync", cloud: edge.CloudConfig{Edges: 2, Fold: edge.FoldSync}},
		{p: p, d: dsSpec{name: "cifar10", classesPerClient: 2}, method: "fedat",
			variant: "tiers=Slow", cmutate: func(cc *simnet.ClusterConfig) { cc.PartSizes = sizes }},
	}
}

// cellRecords runs cs and renders each record as %+v.
func cellRecords(cs []cell) ([]string, error) {
	r, err := runCells(cs)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = fmt.Sprintf("%+v", *r.of(c))
	}
	return out, nil
}

// TestSchedulerByteIdenticalAndExactlyOnce is the scheduler's core
// contract: two experiments that share simulation cells (Figure 6 and the
// theory check both need FedAT on cifar10(#2) and sent140(#2)) run
// concurrently beside a hierarchy cell and a tier-sized cell, and (a)
// their reports and records are byte-identical to a serial -workers 1
// run, (b) every unique cell is simulated exactly once despite the
// concurrent requests.
func TestSchedulerByteIdenticalAndExactlyOnce(t *testing.T) {
	defer SetWorkers(0)

	// Serial reference: one worker, experiments back to back.
	SetWorkers(1)
	ps := microPreset("sched-serial")
	base := SimulationCount()
	fig6Serial, err := figure6(ps)
	if err != nil {
		t.Fatal(err)
	}
	theorySerial, err := theoryValidation(ps)
	if err != nil {
		t.Fatal(err)
	}
	topoSerial, err := cellRecords(topologyCells(ps))
	if err != nil {
		t.Fatal(err)
	}
	serialSims := SimulationCount() - base

	// Concurrent: everything at once on a fresh namespace with eight
	// simulation slots.
	SetWorkers(8)
	pc := microPreset("sched-conc")
	base = SimulationCount()
	var (
		wg               sync.WaitGroup
		fig6Conc         *Report
		theoryConc       *Report
		topoConc         []string
		errA, errB, errC error
	)
	wg.Add(3)
	go func() { defer wg.Done(); fig6Conc, errA = figure6(pc) }()
	go func() { defer wg.Done(); theoryConc, errB = theoryValidation(pc) }()
	go func() { defer wg.Done(); topoConc, errC = cellRecords(topologyCells(pc)) }()
	wg.Wait()
	for _, err := range []error{errA, errB, errC} {
		if err != nil {
			t.Fatal(err)
		}
	}
	concSims := SimulationCount() - base

	if got, want := fig6Conc.String(), fig6Serial.String(); got != want {
		t.Fatalf("fig6 report differs between concurrent and serial execution:\n--- serial ---\n%s\n--- concurrent ---\n%s", want, got)
	}
	if got, want := theoryConc.String(), theorySerial.String(); got != want {
		t.Fatalf("theory report differs between concurrent and serial execution:\n--- serial ---\n%s\n--- concurrent ---\n%s", want, got)
	}
	for i, c := range topologyCells(pc) {
		if topoConc[i] != topoSerial[i] {
			t.Fatalf("cell %s differs between concurrent and serial execution:\n--- serial ---\n%s\n--- concurrent ---\n%s",
				c.variant, topoSerial[i], topoConc[i])
		}
	}

	// Figure 6 needs 3 weighted + 3 uniform FedAT cells; the theory check's
	// two cells are a subset of the weighted three; the topology cells are
	// two more. Exactly-once dedup must hold both serially (cache) and
	// concurrently (singleflight).
	const uniqueCells = 8
	if serialSims != uniqueCells {
		t.Fatalf("serial pass simulated %d cells, want %d", serialSims, uniqueCells)
	}
	if concSims != uniqueCells {
		t.Fatalf("concurrent pass simulated %d cells, want %d (shared cells re-simulated?)", concSims, uniqueCells)
	}
}

// TestSchedulerErrorNotPoisoned checks that a failed cell is evicted so a
// later request retries instead of inheriting a stale error forever, and
// that a request's failure costs none of its good cells.
func TestSchedulerErrorNotPoisoned(t *testing.T) {
	p := microPreset("sched-err")
	bad := cell{p: p, d: dsSpec{name: "no-such-dataset", classesPerClient: 2}, method: "fedat"}
	if _, err := runCells([]cell{bad}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	// The failed cell must not satisfy the next request from the cache: the
	// retry must run (and fail) afresh rather than panic or hang.
	if _, err := runCells([]cell{bad}); err == nil {
		t.Fatal("unknown dataset accepted on retry")
	}
	if _, err := runCells([]cell{{p: p, d: dsSpec{name: "cifar10", classesPerClient: 2}, method: "no-such-method"}}); err == nil {
		t.Fatal("unknown method accepted")
	}

	// A request that mixes a good cell with a failing one returns the
	// error, keeps the good run cached and evicts only the failure.
	good := cell{p: p, d: dsSpec{name: "cifar10", classesPerClient: 2}, method: "fedat"}
	sims := SimulationCount()
	if _, err := runCells([]cell{good, bad}); err == nil {
		t.Fatal("request with an unknown dataset accepted")
	}
	if got := SimulationCount() - sims; got != 2 {
		t.Fatalf("mixed request ran %d simulations, want 2", got)
	}
	runCache.Lock()
	_, goodKept := runCache.m[good.key()]
	_, badKept := runCache.m[bad.key()]
	runCache.Unlock()
	if !goodKept || badKept {
		t.Fatalf("after a failed request: good cell cached %v (want true), failed cell cached %v (want false)",
			goodKept, badKept)
	}
	sims, hits := SimulationCount(), CacheHitCount()
	r, err := runCells([]cell{good})
	if err != nil {
		t.Fatal(err)
	}
	if r.of(good) == nil {
		t.Fatal("good cell has no run")
	}
	if gotSims, gotHits := SimulationCount()-sims, CacheHitCount()-hits; gotSims != 0 || gotHits != 1 {
		t.Fatalf("asking again for the good cell: %d simulations and %d hits, want 0 and 1", gotSims, gotHits)
	}
}

// TestSchedulerUnrequestedCellPanics: reading a cell that was not in the
// request is a programming error, and the panic names the cell.
func TestSchedulerUnrequestedCellPanics(t *testing.T) {
	c := cell{p: microPreset("sched-unrequested"), d: dsSpec{name: "cifar10", classesPerClient: 2}, method: "fedat"}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.key()) {
			t.Fatalf("reading a cell outside the request recovered %v, want a panic naming %s", r, c.key())
		}
	}()
	ran{}.of(c)
}

// TestSchedulerMeta checks the per-cell metadata the JSON renderer
// publishes: every simulated cell appears with its key, a hit count that
// grows as later requests are served from cache, and timing fields.
func TestSchedulerMeta(t *testing.T) {
	// An experiment requests its grid once, so on a fresh cache it records
	// no hits: Figure 2 simulates its 15 (dataset × method) cells and
	// serves none of them from the cache (see cacheHits).
	p2 := microPreset("sched-meta-fig2")
	sims, hits := SimulationCount(), CacheHitCount()
	if _, err := figure2(p2); err != nil {
		t.Fatal(err)
	}
	if gotSims, gotHits := SimulationCount()-sims, CacheHitCount()-hits; gotSims != 15 || gotHits != 0 {
		t.Fatalf("fresh Figure2 ran %d simulations with %d cache hits, want 15 and 0", gotSims, gotHits)
	}
	// A cell named twice in one request is one simulation and no hit.
	twice := cell{p: p2, d: dsSpec{name: "cifar10", classesPerClient: 2}, method: "fedat", variant: "twice"}
	sims, hits = SimulationCount(), CacheHitCount()
	if _, err := runCells([]cell{twice, twice}); err != nil {
		t.Fatal(err)
	}
	if gotSims, gotHits := SimulationCount()-sims, CacheHitCount()-hits; gotSims != 1 || gotHits != 0 {
		t.Fatalf("a cell named twice ran %d simulations with %d cache hits, want 1 and 0", gotSims, gotHits)
	}

	p := microPreset("sched-meta")
	hitsBase := CacheHitCount()
	if _, err := figure6(p); err != nil {
		t.Fatal(err)
	}
	if got := CacheHitCount() - hitsBase; got != 0 {
		t.Fatalf("fresh Figure6 recorded %d cache hits, want 0", got)
	}
	if _, err := figure6(p); err != nil {
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
		p.Name + "|cifar10(#2)|false|fedat|",
		p.Name + "|cifar10(#2)|false|fedat|agg=uniform",
	} {
		if !cells[key] {
			t.Fatalf("cell %q missing from scheduler meta (have %v)", key, cells)
		}
	}
	if totalHits < 6 {
		t.Fatalf("per-cell hits sum to %d, want >= 6", totalHits)
	}
}

// TestSchedulerWorkers covers the worker-count plumbing: SetWorkers sets
// the gate's cap, zero or a negative count restores GOMAXPROCS, and counts
// beyond int32 saturate instead of wrapping.
func TestSchedulerWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if w := slotCap(); w != 3 {
		t.Fatalf("slotCap() with cap 3 = %d", w)
	}
	SetWorkers(0)
	if w, want := slotCap(), runtime.GOMAXPROCS(0); w != want {
		t.Fatalf("slotCap() after SetWorkers(0) = %d, want GOMAXPROCS %d", w, want)
	}
	SetWorkers(-5) // negative resets to auto
	if w, want := slotCap(), runtime.GOMAXPROCS(0); w != want {
		t.Fatalf("slotCap() after negative SetWorkers = %d, want GOMAXPROCS %d", w, want)
	}
	SetWorkers(math.MaxInt) // beyond int32 saturates instead of wrapping
	if w := slotCap(); w != math.MaxInt32 {
		t.Fatalf("slotCap() after huge SetWorkers = %d, want %d", w, math.MaxInt32)
	}
}
