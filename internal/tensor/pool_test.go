package tensor

import (
	"math"
	"sync"
	"testing"

	"repro/internal/parallel"
)

// freeLen reports how many buffers are currently in the free list.
func (l *FreeList[E]) freeLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

// TestPoolRecycles pins the basic contract of both views: Get after Put
// returns the same storage instead of allocating, a prefix Put returns the
// whole buffer, and the free list's length tracks both.
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
	if p.freeLen() != 1 {
		t.Fatalf("freeLen = %d after one Put, want 1", p.freeLen())
	}
	again := p.Get()
	if &again[0] != &buf[0] {
		t.Fatal("Get did not recycle the freed buffer")
	}
	if p.freeLen() != 0 {
		t.Fatalf("freeLen = %d after re-Get, want 0", p.freeLen())
	}

	var l FreeList[byte]
	b := append(l.Get(100)[:0], "frame bytes"...)
	if cap(b) < 100 {
		t.Fatalf("Get(100) returned capacity %d", cap(b))
	}
	l.Put(b[:4]) // any slice sharing the buffer's start returns all of it
	if got := l.Get(50); &got[0] != &b[0] || len(got) != 50 {
		t.Errorf("Get(50) after a prefix Put: len %d, recycled %v", len(got), &got[0] == &b[0])
	}
	l.Put(nil) // a buffer without storage is ignored
	if l.freeLen() != 0 {
		t.Errorf("Put(nil) joined the free list")
	}
}

// TestPoolDoubleReleasePanics pins the misuse contract: putting a buffer
// that is already in the free list is a double release and must panic
// immediately rather than hand the same storage to two owners later — also
// when the second Put is a prefix of the first.
func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool(8)
	buf := p.Get()
	p.Put(buf)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Put of the same buffer did not panic")
			}
		}()
		p.Put(buf)
	}()

	var l FreeList[byte]
	b := l.Get(10)
	l.Put(b)
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a prefix of a free buffer did not panic")
		}
	}()
	l.Put(b[:1])
}

// TestPoolPoisonCatchesUseAfterPut pins the debug mode: with poisoning on,
// a stale alias held across Put reads the poison — NaN for weights, the
// poison byte for frames — so any computation consuming it fails loudly
// instead of silently reading recycled data; a nil poison turns it off.
func TestPoolPoisonCatchesUseAfterPut(t *testing.T) {
	p := NewPool(4)
	nan := math.NaN()
	p.SetPoison(&nan)
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

	var l FreeList[byte]
	poison := byte(0x2A)
	l.SetPoison(&poison)
	b := append(l.Get(16)[:0], "frame"...)
	l.Put(b[:2])
	for i, c := range b[:cap(b)] {
		if c != poison {
			t.Fatalf("returned frame byte %d = %#x, want the poison %#x across the whole capacity", i, c, poison)
		}
	}
	l.SetPoison(nil)
	b = l.Get(16)
	b[0] = 7
	l.Put(b)
	if b[0] != 7 {
		t.Fatal("Put poisoned a buffer after SetPoison(nil)")
	}
}

// TestPoolRejectsWrongSizeAndBounds pins the defensive edges: a
// wrong-length Pool.Put is dropped (not pooled, no panic), FreeList.Get
// drops a free buffer too small for the request, and neither view's list
// grows past freeListCap even against a put-only producer.
func TestPoolRejectsWrongSizeAndBounds(t *testing.T) {
	p := NewPool(8)
	p.Put(make([]float64, 7))
	if p.freeLen() != 0 {
		t.Fatalf("wrong-size Put was pooled; freeLen = %d", p.freeLen())
	}
	for i := 0; i < freeListCap+10; i++ {
		p.Put(make([]float64, 8))
	}
	if p.freeLen() != freeListCap {
		t.Fatalf("freeLen = %d after put-only flood, want cap %d", p.freeLen(), freeListCap)
	}

	var l FreeList[byte]
	small := l.Get(10)
	l.Put(small)
	if got := l.Get(4 * cap(small)); cap(got) < 4*cap(small) || len(got) != 4*cap(small) {
		t.Errorf("Get beyond the free buffer's capacity returned len %d cap %d", len(got), cap(got))
	}
	if l.freeLen() != 0 {
		t.Error("an undersized buffer stayed in the list")
	}
	for i := 0; i < freeListCap+10; i++ {
		l.Put(make([]byte, 8))
	}
	if l.freeLen() != freeListCap {
		t.Errorf("free list holds %d buffers, bound is %d", l.freeLen(), freeListCap)
	}
}

// TestFreeListSizesFreshBuffers pins how a list serving mixed sizes
// allocates: a fresh buffer has the capacity of the largest buffer ever put
// back, so it serves every use seen so far, and a Get that finds the list
// empty frees Spare more such buffers onto it. A Pool's fresh buffers are
// exactly its length.
func TestFreeListSizesFreshBuffers(t *testing.T) {
	var l FreeList[byte]
	l.Put(make([]byte, 0, 1000)) // a frame grown by append
	small := l.Get(10)           // recycles it
	if fresh := l.Get(300); len(fresh) != 300 || cap(fresh) != 1000 {
		t.Errorf("fresh Get(300) has len %d cap %d, want 300 and the largest capacity 1000", len(fresh), cap(fresh))
	}
	if l.freeLen() != 0 {
		t.Fatalf("Spare 0 freed %d spares", l.freeLen())
	}
	l.Put(small)

	l.Spare = 2
	l.Get(1) // recycles small
	if l.freeLen() != 0 {
		t.Fatal("a Get that popped a buffer freed spares")
	}
	if got := l.Get(1); cap(got) != 1000 || l.freeLen() != 2 {
		t.Errorf("Get on an empty list: cap %d and %d spares, want 1000 and 2", cap(got), l.freeLen())
	}
	if got := l.Get(0); cap(got) != 1000 {
		t.Errorf("a spare has capacity %d, want 1000", cap(got))
	}

	p := NewPool(8)
	p.Put(p.Get())
	p.Get()
	if got := p.Get(); cap(got) != 8 {
		t.Errorf("a fresh Pool buffer has capacity %d, want its length 8", cap(got))
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
		for _, v := range buf {
			if v != tag {
				mu.Lock()
				errs = append(errs, "worker saw foreign write")
				mu.Unlock()
				break
			}
		}
		p.Put(buf)
	})
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("pool ownership violated %d times: %s", len(errs), errs[0])
	}
	if p.freeLen() > freeListCap {
		t.Fatalf("free list overgrew: %d > %d", p.freeLen(), freeListCap)
	}
}

// BenchmarkFreeList times one borrow and return through each view at the
// benchmark's sizes: weights is a Pool Get+Put of the 56,842-weight wide
// MLP, frames a Get(n)+Put of a 150 kB frame. Both recycle one buffer, so
// neither allocates.
func BenchmarkFreeList(b *testing.B) {
	b.Run("weights", func(b *testing.B) {
		p := NewPool(56842)
		p.Put(p.Get())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Put(p.Get())
		}
	})
	b.Run("frames", func(b *testing.B) {
		var l FreeList[byte]
		const n = 150_000
		l.Put(l.Get(n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Put(l.Get(n))
		}
	})
}
