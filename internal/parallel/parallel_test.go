package parallel

import (
	"sync/atomic"
	"testing"
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

func BenchmarkForOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		For(64, func(int) {})
	}
}
