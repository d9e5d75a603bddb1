// Package parallel provides the small set of fork-join helpers used by the
// tensor kernels, the client trainers, the evaluation harness and the
// experiment scheduler.
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
// serial loop to avoid goroutine overhead.
func For(n int, body func(i int)) {
	ForWorkers(n, Workers(n), body)
}

// ForWorkers is For with an explicit worker count (used by benchmarks and
// by callers that know the per-item cost is tiny).
func ForWorkers(n, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	// Contiguous chunks rather than striding: better cache behaviour for
	// the dense kernels that dominate this repo's CPU time.
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				body(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Dynamic runs body(i) for every i in [0, n) over workers goroutines with
// dynamic (atomic next-index) dispatch. ForWorkers' contiguous chunking is
// a cache optimization for tiny dense-kernel bodies; when per-item cost
// varies wildly — the experiment scheduler's heterogeneous simulation
// cells, whole experiments — static chunks let one unlucky worker
// serialize the expensive items while the rest idle. Dynamic keeps every
// worker busy until the batch drains. The determinism contract is the same
// as For's: body must only touch state owned by index i.
func Dynamic(n, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}
