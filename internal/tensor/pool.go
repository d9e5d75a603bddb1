package tensor

import (
	"fmt"
	"sync"
)

// FreeList is a bounded LIFO free list of []E buffers: the weight pool
// behind the zero-alloc training hot path (through Pool) and the frame
// buffers behind the allocation-free wire path (transport) are its two
// views.
//
// Ownership contract (see DESIGN.md §"Buffer ownership & aliasing rules"):
// Get transfers exclusive ownership to the caller; Put transfers it back.
// Buffers come back DIRTY — callers must fully overwrite a gotten buffer
// before reading it, and must not touch a buffer after putting it. Put of a
// buffer that is already free panics (double-release), which turns the
// classic silent pool corruption into an immediate, attributable failure.
// A FreeList is safe for concurrent use (the live fabric's connection
// readers Get decode buffers the engine goroutine later Puts); the list
// is bounded so a producer that puts without ever getting cannot grow it
// without bound. The zero value is an empty list with poisoning off.
type FreeList[E any] struct {
	// Spare is how many buffers beyond the one asked for a Get that finds
	// the list empty allocates and frees onto it. A list whose peak of
	// buffers in use is reached only now and then (frames on a wall-clock
	// fabric, where the peak follows arrival timing) then stays Spare
	// buffers ahead of each new peak instead of allocating at the next one.
	// A list whose peak is set by the work itself (Pool) leaves it 0.
	Spare int

	mu   sync.Mutex
	free [][]E
	// inPool tracks the base pointer of every buffer currently in the free
	// list, strictly to detect double-Put. Entries exist only while the
	// buffer is free, so a dropped or gotten buffer can never produce a
	// stale match against recycled memory.
	inPool map[*E]struct{}
	// largest is the largest capacity ever put back: the size a buffer
	// must have to serve every use seen so far.
	largest int

	poison *E
}

// freeListCap bounds the free list. Steady-state runs check out at most a
// cohort's worth of buffers (or rounds in flight) at a time, so this is
// generous; it only guards against one-way producers.
const freeListCap = 64

// Get returns a length-n buffer with unspecified contents. It pops the most
// recently freed buffer and drops it for a fresh one when its capacity is
// under n. A fresh buffer gets the capacity of the largest buffer ever put
// back, when that is more than n, so a list serving mixed sizes (a frame
// read at its exact length, a frame built by append) holds buffers that
// each fit every use seen so far. A list of one length (Pool) allocates
// exactly that length. Get(0) on an empty list returns nil. The caller owns the
// buffer — and whatever it grows into by append — until Put.
func (l *FreeList[E]) Get(n int) []E {
	var buf []E
	l.mu.Lock()
	if k := len(l.free); k > 0 {
		buf = l.free[k-1]
		l.free[k-1] = nil
		l.free = l.free[:k-1]
		delete(l.inPool, &buf[0])
	}
	largest := l.largest
	l.mu.Unlock()
	if cap(buf) >= n {
		return buf[:n]
	}
	size := max(n, largest)
	if buf == nil {
		for range l.Spare {
			l.Put(make([]E, size))
		}
	}
	return make([]E, n, size)
}

// Put returns a buffer — or any slice sharing its start, such as the
// payload a read returned — to the list at its full capacity. Put accepts
// buffers the list did not create; a buffer without storage is ignored, and
// one beyond the bound is dropped. The list keeps only buffers of the
// largest capacity ever put back, so every free buffer serves every use
// seen so far: a smaller one is dropped, and a larger one drops the free
// buffers it outgrows. A list of one length (Pool) never drops by size.
func (l *FreeList[E]) Put(buf []E) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.inPool[&buf[0]]; dup {
		panic(fmt.Sprintf("tensor: FreeList.Put of a buffer already free (cap %d) — double release", cap(buf)))
	}
	switch c := cap(buf); {
	case c > l.largest:
		// Every free buffer is smaller than the new largest. Drop them now:
		// kept, each would be replaced only when a use of the new size
		// happened to pop it, so when the list allocates would follow the
		// order of Gets and Puts — arrival timing, on a wall-clock fabric.
		for _, f := range l.free {
			delete(l.inPool, &f[0])
		}
		clear(l.free)
		l.free = l.free[:0]
		l.largest = c
	case c < l.largest:
		return
	}
	if len(l.free) >= freeListCap {
		return
	}
	if l.poison != nil {
		for i := range buf {
			buf[i] = *l.poison
		}
	}
	if l.inPool == nil {
		l.inPool = make(map[*E]struct{})
	}
	l.free = append(l.free, buf)
	l.inPool[&buf[0]] = struct{}{}
}

// SetPoison sets the value Put fills every returned buffer with, or turns
// poisoning off with nil. A use-after-put then reads the poison — NaN for
// weights, a byte no decoder accepts for frames — instead of silently
// reading recycled data, and races with the fill under -race. Tests enable
// it; production paths leave it off (Get contents are unspecified either
// way).
func (l *FreeList[E]) SetPoison(v *E) {
	l.mu.Lock()
	l.poison = v
	l.mu.Unlock()
}

// Pool is the fixed-length view of a FreeList: the per-run weight pool,
// whose buffers all have one model's length. One run allocates a handful of
// model-sized vectors on its first round and then recycles them across
// every subsequent round, cohort and tier fold; SetPoison with a NaN is its
// use-after-Put detector.
type Pool struct {
	FreeList[float64]
	size int
}

// NewPool builds a pool of length-size buffers. The pool starts empty; Get
// allocates until Puts start recycling.
func NewPool(size int) *Pool {
	if size <= 0 {
		panic("tensor: NewPool size must be positive")
	}
	return &Pool{size: size}
}

// Size returns the buffer length this pool serves.
func (p *Pool) Size() int { return p.size }

// Get returns a length-Size buffer with unspecified contents. The caller
// owns it until Put.
func (p *Pool) Get() []float64 { return p.FreeList.Get(p.size) }

// Put returns a buffer to the pool. Buffers of the wrong length are
// rejected (dropped) rather than corrupting the free list; putting a buffer
// that is already free panics.
func (p *Pool) Put(buf []float64) {
	if len(buf) != p.size {
		return
	}
	p.FreeList.Put(buf)
}
