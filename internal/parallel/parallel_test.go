package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/testutil"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForWorkersSerialEqualsParallel(t *testing.T) {
	n := 513
	serial := make([]int, n)
	ForWorkers(n, 1, func(i int) { serial[i] = i * i })
	par := make([]int, n)
	ForWorkers(n, 8, func(i int) { par[i] = i * i })
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestDynamicCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, workers := range []int{1, 3, 8, 2000} {
			seen := make([]int32, n)
			Dynamic(n, workers, func(i int) { atomic.AddInt32(&seen[i], 1) })
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestWorkersBounds(t *testing.T) {
	if w := Workers(0); w != 1 {
		t.Fatalf("Workers(0) = %d, want 1", w)
	}
	if w := Workers(1); w != 1 {
		t.Fatalf("Workers(1) = %d, want 1", w)
	}
	if w := Workers(1 << 20); w < 1 {
		t.Fatalf("Workers(big) = %d", w)
	}
}

// holdAll runs f on one participant of a region that holds every helper:
// GOMAXPROCS participants meet at a barrier before f runs and leave only
// after it returns, so every region f starts finds no helper idle. A
// helper an earlier region claimed may not have run yet, so holdAll first
// waits until every helper is idle and its region can claim them all.
func holdAll(f func()) {
	for _, h := range helpers() {
		for !h.idle.Load() {
			runtime.Gosched()
		}
	}
	p := runtime.GOMAXPROCS(0)
	var arrived sync.WaitGroup
	arrived.Add(p)
	done := make(chan struct{})
	ForWorkers(p, p, func(i int) {
		arrived.Done()
		arrived.Wait()
		if i == 0 {
			f()
			close(done)
		}
		<-done
	})
}

// TestRegionsAllocateNothing: with a prebuilt body, a region allocates
// nothing in steady state, whether it fans out to idle helpers or runs
// inline inside a region that holds them all. The worker counts are
// explicit, so the regions ask for fan-out even at GOMAXPROCS 1.
func TestRegionsAllocateNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race instruments allocations; AllocsPerRun counts are meaningless")
	}
	sink := make([]int, 64)
	body := func(i int) { sink[i]++ }
	regions := []struct {
		name string
		run  func()
	}{
		{"For", func() { For(64, body) }},
		{"ForWorkers", func() { ForWorkers(64, 4, body) }},
		{"Dynamic", func() { Dynamic(64, 4, body) }},
	}
	check := func(where string) {
		for _, r := range regions {
			r.run() // warm: helpers started, job pooled
			if got := testing.AllocsPerRun(100, r.run); got != 0 {
				t.Errorf("%s %s: %.1f allocations per region, want 0", where, r.name, got)
			}
		}
	}
	check("fanned out")
	holdAll(func() { check("nested") })
}

// TestNestedRegionsStartNoGoroutine: 1,000 regions nested inside a region
// that holds every helper run inline on their caller, so the goroutine count
// seen from their bodies never rises above its count before them, and every
// index still runs once.
func TestNestedRegionsStartNoGoroutine(t *testing.T) {
	holdAll(func() {
		base := runtime.NumGoroutine()
		var seen [8]int
		peak := 0
		body := func(i int) {
			seen[i]++
			peak = max(peak, runtime.NumGoroutine())
		}
		const regions = 1000
		for r := 0; r < regions; r++ {
			switch r % 3 {
			case 0:
				For(len(seen), body)
			case 1:
				ForWorkers(len(seen), 4, body)
			default:
				Dynamic(len(seen), 4, body)
			}
		}
		// At most base: a goroutine left from an earlier test may exit
		// meanwhile, but none may start.
		if after := runtime.NumGoroutine(); peak > base || after > base {
			t.Errorf("goroutines: %d before, peak %d inside nested regions, %d after", base, peak, after)
		}
		for i, c := range seen {
			if c != regions {
				t.Errorf("index %d ran %d times over %d regions", i, c, regions)
			}
		}
	})
}

// TestConcurrentNestedRegions: eight goroutines issue nested regions at
// once. Every index of every inner region runs exactly once — the plain
// counters give the race detector the region's return to order against
// each body's write — and the regions share the helpers instead of starting
// goroutines of their own.
func TestConcurrentNestedRegions(t *testing.T) {
	const callers, outer, inner, reps = 8, 6, 32, 20
	For(64, func(int) {}) // start the helpers
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	var seen [callers][outer][inner]int
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				Dynamic(outer, 4, func(o int) {
					ForWorkers(inner, 4, func(i int) {
						seen[c][o][i]++
						if g := int64(runtime.NumGoroutine()); g > peak.Load() {
							peak.Store(g)
						}
					})
				})
			}
		}()
	}
	wg.Wait()
	for c := range seen {
		for o := range seen[c] {
			for i, n := range seen[c][o] {
				if n != reps {
					t.Fatalf("caller %d outer %d inner %d ran %d times, want %d", c, o, i, n, reps)
				}
			}
		}
	}
	if p := peak.Load(); p > int64(base+callers) {
		t.Errorf("%d goroutines at peak, want at most %d (%d before plus the %d callers)", p, base+callers, base, callers)
	}
}

// BenchmarkForOverhead times an empty 64-index region: fanned out to the
// idle helpers, and nested inside one region that holds every helper for
// the whole loop, where it runs inline. The body is built once, as the
// tensor kernels build theirs, so allocs/op is the regions' own.
func BenchmarkForOverhead(b *testing.B) {
	body := func(int) {}
	loop := func(n int, region func()) {
		for i := 0; i < n; i++ {
			region()
		}
	}
	for _, r := range []struct {
		name string
		run  func(n int)
	}{
		{"For", func(n int) { loop(n, func() { For(64, body) }) }},
		{"ForWorkers", func(n int) { loop(n, func() { ForWorkers(64, 4, body) }) }},
		{"Dynamic", func(n int) { loop(n, func() { Dynamic(64, 4, body) }) }},
		{"nested", func(n int) { holdAll(func() { loop(n, func() { For(64, body) }) }) }},
	} {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			r.run(b.N)
		})
	}
}
