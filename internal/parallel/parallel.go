// Package parallel provides the small set of fork-join helpers used by the
// tensor kernels, the client trainers and the evaluation harness.
//
// All helpers are deterministic with respect to the result: workers write to
// disjoint index ranges, so the outcome never depends on scheduling. That
// property is what lets the experiment harness train many federated clients
// concurrently while staying bit-reproducible. Callers uphold their half of
// the contract by giving each index its own state — in this repo a cohort
// member's training body holds one of its environment's model replicas for
// the whole local round, derives the member's own labeled RNG streams and
// writes only the member's slot (see fl.Client), and every experiment
// scheduler cell builds a fresh Env — so body(i) and body(j) never race and
// results are identical to a serial loop. DESIGN.md §2 documents the full
// determinism contract.
//
// Every region runs on one process-wide core budget: GOMAXPROCS−1
// persistent helper goroutines, started on first use and grown when
// GOMAXPROCS rises. A region runs on its caller plus the helpers that are
// idle at the moment it starts; it never queues work for a busy helper. So
// a region nested inside another — a GEMM inside a cohort member's
// training — finds the helpers held by its enclosing region and runs inline on its caller: no goroutine
// is started, the cores are not oversubscribed, and a body that blocks
// cannot starve a region of the one participant it always has. A region
// returns once every index has run, without waiting for a claimed helper
// the Go scheduler has not started yet. In steady state a region allocates
// nothing, whether it fans out or runs inline.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps worker counts; GOMAXPROCS already reflects the machine,
// the cap only guards against pathological explicit requests.
const maxWorkers = 1024

// Workers returns the effective worker count for a job of size n: at most
// GOMAXPROCS, at most n, and at least 1.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	if w > maxWorkers {
		w = maxWorkers
	}
	return w
}

// For runs body(i) for every i in [0, n), splitting the range over workers.
// body must only touch state owned by index i. Small n short-circuits to a
// serial loop.
func For(n int, body func(i int)) {
	ForWorkers(n, Workers(n), body)
}

// ForWorkers is For with an explicit worker count (used by benchmarks and
// by callers that know the per-item cost is tiny). The range is cut into
// workers contiguous chunks — better cache behaviour for the dense kernels
// that dominate this repo's CPU time — and at most workers participants
// take them.
func ForWorkers(n, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	workers = max(min(workers, n), 1)
	run(n, workers, (n+workers-1)/workers, body)
}

// Dynamic runs body(i) for every i in [0, n) on at most workers
// participants with dynamic (atomic next-index) dispatch. ForWorkers'
// contiguous chunking is a cache optimization for tiny dense-kernel bodies;
// when per-item cost varies wildly — the experiment scheduler's
// heterogeneous simulation cells, whole experiments — static chunks let one
// unlucky worker serialize the expensive items while the rest idle. Dynamic
// keeps every participant busy until the batch drains. The determinism
// contract is the same as For's: body must only touch state owned by index
// i.
func Dynamic(n, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	run(n, min(workers, n), 1, body)
}

// run executes body over [0, n) in chunks of chunk indices on the caller
// and at most workers−1 helpers, taking only helpers idle right now. With
// none idle it is the serial loop. It returns once every chunk has run; a
// claimed helper that had not started by then finds none left and goes
// idle, so a region never waits for a helper the scheduler has not run —
// on a busy machine the caller simply takes every chunk itself.
func run(n, workers, chunk int, body func(i int)) {
	var j *job
	chunks := (n + chunk - 1) / chunk
	if claim := min(workers, chunks) - 1; claim > 0 {
		for _, h := range helpers() {
			if !h.idle.CompareAndSwap(true, false) {
				continue
			}
			if j == nil {
				j = getJob()
				j.body, j.n, j.chunk = body, n, chunk
				j.pending.Add(chunks)
				j.refs.Store(1)
			}
			j.refs.Add(1)
			h.work <- j
			if claim--; claim == 0 {
				break
			}
		}
	}
	if j == nil {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	j.take()
	j.pending.Wait()
	j.release()
}

// job is one region fanned out to helpers. Jobs are recycled through a free
// list, so a region that fans out allocates nothing once the list is warm.
type job struct {
	body     func(i int)
	n, chunk int
	next     atomic.Int64   // next chunk to take
	pending  sync.WaitGroup // chunks not yet finished
	refs     atomic.Int32   // participants that may still touch the job
}

// jobs is the free list of idle jobs. Unlike a sync.Pool it is not emptied
// by a collection, and a job the last participant returns from another P is
// found by the next region on any P, so it holds as many jobs as regions
// have ever fanned out at once and allocates no more.
var jobs struct {
	mu   sync.Mutex
	free []*job
}

// getJob takes an idle job, or makes one when none is idle.
func getJob() *job {
	jobs.mu.Lock()
	defer jobs.mu.Unlock()
	k := len(jobs.free)
	if k == 0 {
		return new(job)
	}
	j := jobs.free[k-1]
	jobs.free = jobs.free[:k-1]
	return j
}

// take runs chunks until none is left.
func (j *job) take() {
	done := 0
	for {
		lo := int(j.next.Add(1)-1) * j.chunk
		if lo >= j.n {
			break
		}
		for i, hi := lo, min(lo+j.chunk, j.n); i < hi; i++ {
			j.body(i)
		}
		done++
	}
	if done > 0 {
		j.pending.Add(-done)
	}
}

// release drops one participant's hold on the job; the last one returns it
// to the pool, which may be a helper that arrives after the region has
// returned.
func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.body = nil
		j.next.Store(0)
		jobs.mu.Lock()
		jobs.free = append(jobs.free, j)
		jobs.mu.Unlock()
	}
}

// helper is one persistent goroutine of the core budget. A region owns it
// from the moment it wins the CAS on idle until the helper has run out of
// the region's chunks. work has room for one job because only the region
// that won the CAS sends, so the send never blocks.
type helper struct {
	idle atomic.Bool
	work chan *job
}

// loop serves regions for the life of the process.
func (h *helper) loop() {
	for j := range h.work {
		j.take()
		h.idle.Store(true)
		j.release()
	}
}

var (
	helpersMu sync.Mutex
	helperSet atomic.Pointer[[]*helper]
)

// helpers returns the GOMAXPROCS−1 helpers a region may claim, starting
// any that GOMAXPROCS has grown past since the last region. Helpers above
// a since-lowered GOMAXPROCS stay parked and unclaimed.
func helpers() []*helper {
	want := min(runtime.GOMAXPROCS(0), maxWorkers) - 1
	if hs := helperSet.Load(); hs != nil && len(*hs) >= want {
		return (*hs)[:want]
	}
	helpersMu.Lock()
	defer helpersMu.Unlock()
	var hs []*helper
	if old := helperSet.Load(); old != nil {
		hs = append(hs, *old...)
	}
	for len(hs) < want {
		h := &helper{work: make(chan *job, 1)}
		h.idle.Store(true)
		go h.loop()
		hs = append(hs, h)
	}
	helperSet.Store(&hs)
	return hs[:want]
}
