package tensor

import (
	"math"
	"sync"
	"testing"

	"repro/internal/parallel"
)

// FreeLen reports how many buffers are currently in the free list.
func (p *Pool) FreeLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// TestPoolRecycles pins the basic contract: Get after Put returns the same
// storage instead of allocating, and FreeLen tracks the free list.
func TestPoolRecycles(t *testing.T) {
	p := NewPool(16)
	if p.Size() != 16 {
		t.Fatalf("Size() = %d, want 16", p.Size())
	}
	buf := p.Get()
	if len(buf) != 16 {
		t.Fatalf("Get returned len %d, want 16", len(buf))
	}
	p.Put(buf)
	if p.FreeLen() != 1 {
		t.Fatalf("FreeLen = %d after one Put, want 1", p.FreeLen())
	}
	again := p.Get()
	if &again[0] != &buf[0] {
		t.Fatal("Get did not recycle the freed buffer")
	}
	if p.FreeLen() != 0 {
		t.Fatalf("FreeLen = %d after re-Get, want 0", p.FreeLen())
	}
}

// TestPoolDoubleReleasePanics pins the misuse contract: putting a buffer
// that is already in the free list is a double release and must panic
// immediately rather than hand the same storage to two owners later.
func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool(8)
	buf := p.Get()
	p.Put(buf)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same buffer did not panic")
		}
	}()
	p.Put(buf)
}

// TestPoolPoisonCatchesUseAfterPut pins the debug mode: with poisoning on,
// a stale alias held across Put reads NaN, so any computation consuming it
// loudly propagates NaN instead of silently reading recycled weights.
func TestPoolPoisonCatchesUseAfterPut(t *testing.T) {
	p := NewPool(4)
	p.SetPoison(true)
	buf := p.Get()
	Fill(buf, 1.5)
	stale := buf // the bug under test: retaining an alias across Put
	p.Put(buf)
	for i, v := range stale {
		if !math.IsNaN(v) {
			t.Fatalf("use-after-put read stale[%d] = %v, want NaN poison", i, v)
		}
	}
	// And the poison must not leak into the value contract: Get hands the
	// buffer back as dirty-but-owned; overwriting it fully works as usual.
	got := p.Get()
	Fill(got, 2.0)
	if got[0] != 2.0 {
		t.Fatal("pooled buffer unusable after poison round-trip")
	}
}

// TestPoolRejectsWrongSizeAndBounds pins the two defensive edges: a
// wrong-length Put is dropped (not pooled, no panic), and the free list
// never grows past poolCap even against a put-only producer.
func TestPoolRejectsWrongSizeAndBounds(t *testing.T) {
	p := NewPool(8)
	p.Put(make([]float64, 7))
	if p.FreeLen() != 0 {
		t.Fatalf("wrong-size Put was pooled; FreeLen = %d", p.FreeLen())
	}
	for i := 0; i < poolCap+10; i++ {
		p.Put(make([]float64, 8))
	}
	if p.FreeLen() != poolCap {
		t.Fatalf("FreeLen = %d after put-only flood, want cap %d", p.FreeLen(), poolCap)
	}
}

// TestPoolConcurrentHammer hammers one shared pool from many goroutines in
// the same shape as the hot path: parallel.For client training checks
// buffers out, fills them, and releases them, while a separate put-only
// producer (the live fabric's transport results) floods foreign buffers in.
// Run under -race this is the pool's data-race certificate; under a plain
// build it still checks exclusive ownership — no two concurrent holders
// ever see each other's writes.
func TestPoolConcurrentHammer(t *testing.T) {
	const (
		size    = 64
		workers = 8
		rounds  = 200
	)
	p := NewPool(size)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the one-way producer
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p.Put(make([]float64, size))
		}
	}()
	var mu sync.Mutex
	var errs []string
	parallel.ForWorkers(workers*rounds, workers, func(i int) {
		buf := p.Get()
		tag := float64(i + 1)
		Fill(buf, tag)
		// Ownership is exclusive between Get and Put: nobody else may have
		// scribbled on the buffer while we held it.
		for j, v := range buf {
			if v != tag {
				mu.Lock()
				errs = append(errs, "worker saw foreign write")
				mu.Unlock()
				_ = j
				break
			}
		}
		p.Put(buf)
	})
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("pool ownership violated %d times: %s", len(errs), errs[0])
	}
	if p.FreeLen() > poolCap {
		t.Fatalf("free list overgrew: %d > %d", p.FreeLen(), poolCap)
	}
}
