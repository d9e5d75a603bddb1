package experiments

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/simnet"
)

// Every experiment run is a cell: a simulation fully described by (preset,
// dataset spec, method, variant), and so deterministic given them.
// Experiments that share runs (Figure 2, Figure 4 and Table 2 all analyze
// the same training) reuse them through a shared cell cache instead of
// re-simulating.
//
// The scheduler runs a plan/execute/fill sequence:
//
//  1. Plan: collect every cache-missing cell of the request and CLAIM it
//     under one critical section. A cell already claimed by a concurrent
//     experiment is not re-claimed — the requester just waits on it
//     (singleflight dedup), so concurrent experiments sharing cells never
//     simulate the same cell twice.
//  2. Execute: each claimed cell runs on its own goroutine, which takes a
//     slot of the one process-wide gate before it builds anything. The
//     goroutines are plain ones, not a parallel region: a cell waiting for
//     a slot must not hold a helper of the core budget that the running
//     cells' cohorts and GEMMs could use. Each cell builds a fresh Env
//     (own dataset, own cluster, own RNG streams) and runs its method, so
//     cells never share mutable state and the result is bit-identical to a
//     serial run.
//  3. Fill: publish each finished run by closing the cell's done channel;
//     waiters read the result without re-entering the critical section.
//
// Reports therefore stay byte-identical to serial execution no matter how
// many workers run or how experiments interleave.

// cell is one schedulable unit of simulation: a single (preset, dataset
// spec, method, variant) run. mutate must be a deterministic function of
// variant ("" for none).
type cell struct {
	p       Preset
	d       dsSpec
	method  string
	variant string
	mutate  func(*fl.RunConfig)
	// cmutate adjusts the simulated cluster (the dynamics experiments
	// switch on drift/churn behavior, Figure 10 sets the tier sizes). Like
	// mutate it must be a deterministic function of variant.
	cmutate func(*simnet.ClusterConfig)
	// spec overrides the registry lookup with an explicit policy
	// composition (the composition-ablation cells). When set, method must
	// be a unique label for the composition — it keys the cache.
	spec *fl.Method
	// cloud is the topology: Edges 0 runs flat, K >= 1 runs K edge engines
	// over sharded populations folding into a cloud model (runHierarchy).
	// Like mutate it must be named by the method label or the variant.
	cloud edge.CloudConfig
}

func (c cell) key() string { return cacheKey(c.p, c.d, c.method, c.variant) }

// methodSpec resolves the cell's method: an explicit composition if one is
// attached, else the registry entry named by method.
func (c cell) methodSpec() (fl.Method, error) {
	if c.spec != nil {
		return *c.spec, nil
	}
	return fl.Lookup(c.method)
}

// cellState is the singleflight slot for one cell. done is closed exactly
// once, after run/err/simMS are set, by the goroutine that claimed the
// cell. hits counts how many later requests this slot absorbed (served
// from the cached or in-flight result instead of re-simulating); it feeds
// the JSON report's scheduler metadata.
type cellState struct {
	done  chan struct{}
	run   *metrics.Run
	err   error
	simMS float64
	hits  atomic.Int64
}

var runCache = struct {
	sync.Mutex
	m map[string]*cellState
}{m: map[string]*cellState{}}

// simulations counts every simulation executed in-process (not served
// from cache or deduped onto another experiment's in-flight run):
// scheduler cells and simulateDirect's uncached runs. Tests use deltas of
// it to assert the exactly-once property.
var simulations atomic.Int64

// SimulationCount reports how many simulations this process has executed.
func SimulationCount() int64 { return simulations.Load() }

// cacheHits counts cell REQUESTS served from an existing (cached or
// in-flight) cell instead of triggering a fresh simulation. This is a
// request-level metric, not a cross-experiment dedup count: an experiment
// that prefetches its grid and then collects per spec re-requests its own
// cells, and those re-requests count too. It answers "how much re-request
// traffic did the cache absorb", and is an upper bound on sharing between
// experiments.
var cacheHits atomic.Int64

// CacheHitCount reports how many cell requests the cache has absorbed (see
// cacheHits for what counts as a hit).
func CacheHitCount() int64 { return cacheHits.Load() }

// SchedulerMeta snapshots the scheduler's account of the process so far:
// total simulations, cache hits, and the per-cell record (key, simulation
// wall-clock, hit count) in key order. Cells still in flight are skipped —
// their timing is not yet known. Uncached runs (the scale experiment's
// ladder, fedsim -compose) count in Simulations but have no cell entry.
func SchedulerMeta() *report.SchedulerMeta {
	meta := &report.SchedulerMeta{
		Simulations: simulations.Load(),
		CacheHits:   cacheHits.Load(),
		Cells:       []report.CellMeta{},
	}
	runCache.Lock()
	defer runCache.Unlock()
	for _, k := range slices.Sorted(maps.Keys(runCache.m)) {
		st := runCache.m[k]
		select {
		case <-st.done:
			meta.Cells = append(meta.Cells, report.CellMeta{
				Key: k, SimMS: st.simMS, Hits: st.hits.Load(),
			})
		default: // still simulating; no timing to report yet
		}
	}
	return meta
}

// workerOverride is the scheduler's worker cap; 0 means GOMAXPROCS.
var workerOverride atomic.Int32

// SetWorkers caps how many simulations run concurrently process-wide
// (cmd/fedsim's -workers flag). n <= 0 restores the default, GOMAXPROCS;
// values beyond int32 range saturate rather than wrap.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	if n > math.MaxInt32 {
		n = math.MaxInt32
	}
	workerOverride.Store(int32(n))
	gate.cond.Broadcast() // the cap may have risen; wake waiting acquirers
}

// gate bounds how many simulations execute at once PROCESS-WIDE. Cells
// from concurrent experiments (and simulateDirect's runs) all draw from
// this one budget, so -workers is a true global cap rather than a
// per-batch one: '-exp all -workers 2' never runs more than two
// simulations at a time no matter how many experiments are in flight.
var gate = struct {
	mu     sync.Mutex
	cond   *sync.Cond
	active int
}{}

func init() { gate.cond = sync.NewCond(&gate.mu) }

func slotCap() int {
	w := int(workerOverride.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

func acquireSlot() {
	gate.mu.Lock()
	for gate.active >= slotCap() {
		gate.cond.Wait()
	}
	gate.active++
	gate.mu.Unlock()
}

func releaseSlot() {
	gate.mu.Lock()
	gate.active--
	gate.mu.Unlock()
	gate.cond.Broadcast()
}

// simulateDirect runs one uncached simulation (the scale experiment's
// ladder, fedsim -compose) under the same global gate and counter as
// scheduler cells, so -workers and the fedsim summary line account for
// it. run should do ALL its work inside — including building the Env,
// the memory-heavy phase the gate exists to bound.
func simulateDirect(run func() (*metrics.Run, error)) (*metrics.Run, error) {
	acquireSlot()
	defer releaseSlot()
	simulations.Add(1)
	return run()
}

// scheduleCells runs the plan/execute/fill sequence for a batch of cells
// and blocks until every one (claimed here or by a concurrent experiment)
// has a result. The first error observed is returned; failed cells are
// evicted so a later request can retry them.
func scheduleCells(cells []cell) error {
	// Plan: claim missing cells under one critical section. Deduplicate
	// within the batch too — experiments may request overlapping cells.
	// Requests absorbed by an existing slot (cached or in flight) count as
	// cache hits for the scheduler metadata.
	type claimedCell struct {
		c  cell
		st *cellState
	}
	waiters := make([]*cellState, 0, len(cells))
	owned := map[string]claimedCell{}
	runCache.Lock()
	for _, c := range cells {
		k := c.key()
		if st, ok := runCache.m[k]; ok {
			st.hits.Add(1)
			cacheHits.Add(1)
			waiters = append(waiters, st)
			continue
		}
		if _, ok := owned[k]; ok {
			continue // duplicate within this batch; first claim covers it
		}
		st := &cellState{done: make(chan struct{})}
		runCache.m[k] = st
		owned[k] = claimedCell{c: c, st: st}
		waiters = append(waiters, st)
	}
	runCache.Unlock()

	// Execute: one goroutine per claimed cell, each behind the gate.
	for _, oc := range owned {
		go func() {
			acquireSlot()
			start := time.Now()
			simulations.Add(1)
			oc.st.run, oc.st.err = runCell(oc.c, nil)
			oc.st.simMS = float64(time.Since(start)) / float64(time.Millisecond)
			releaseSlot()
			close(oc.st.done)
		}()
	}

	// Fill/wait: collect every requested cell, evicting this batch's own
	// failures so they can be retried. Failed cells owned by concurrent
	// batches are their owners' to evict — every owner observes its own
	// cells' errors in this loop.
	var firstErr error
	for _, st := range waiters {
		<-st.done
		if st.err != nil && firstErr == nil {
			firstErr = st.err
		}
	}
	if firstErr != nil {
		runCache.Lock()
		for k, oc := range owned {
			if oc.st.err != nil && runCache.m[k] == oc.st {
				delete(runCache.m, k)
			}
		}
		runCache.Unlock()
	}
	return firstErr
}

// cachedRunMethods schedules the named methods' plain cells (sharing
// in-flight and cached runs with every other experiment) and returns the
// run records keyed by method.
func cachedRunMethods(p Preset, d dsSpec, names []string) (map[string]*metrics.Run, error) {
	cells := make([]cell, len(names))
	for i, name := range names {
		cells[i] = cell{p: p, d: d, method: name}
	}
	if err := scheduleCells(cells); err != nil {
		return nil, err
	}
	out := make(map[string]*metrics.Run, len(names))
	for i, name := range names {
		run, err := cellRun(cells[i])
		if err != nil {
			return nil, err
		}
		out[name] = run
	}
	return out, nil
}

// cellRun fetches the completed run for a cell previously passed to
// scheduleCells. Experiments that sweep variants keep each cell's
// (variant, mutate) definition in exactly one place by building the cell
// once, scheduling the batch, and collecting through this accessor.
func cellRun(c cell) (*metrics.Run, error) {
	runCache.Lock()
	st, ok := runCache.m[c.key()]
	runCache.Unlock()
	if !ok {
		return nil, fmt.Errorf("experiments: cell %s was never scheduled (or failed and was evicted)", c.key())
	}
	<-st.done
	if st.err != nil {
		return nil, st.err
	}
	return st.run, nil
}

// prefetch schedules every (spec × method) cell of an experiment in one
// batch, so work that the experiment's rendering loop would request
// serially (one cachedRunMethods call per spec) instead runs concurrently
// across the whole grid. The follow-up cachedRunMethods calls then hit the
// cache.
func prefetch(p Preset, specs []dsSpec, names []string) error {
	cells := make([]cell, 0, len(specs)*len(names))
	for _, d := range specs {
		for _, name := range names {
			cells = append(cells, cell{p: p, d: d, method: name})
		}
	}
	return scheduleCells(cells)
}

func cacheKey(p Preset, d dsSpec, method, variant string) string {
	return strings.Join([]string{p.Name, d.label(), fmt.Sprint(d.large), method, variant}, "|")
}
