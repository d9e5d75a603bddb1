package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Pool is a free-list of equally-sized []float64 buffers — the per-run
// weight pool behind the zero-alloc training hot path. One run allocates a
// handful of model-sized vectors on its first round and then recycles them
// across every subsequent round, cohort and tier fold.
//
// Ownership contract (see DESIGN.md §"Buffer ownership & aliasing rules"):
// Get transfers exclusive ownership to the caller; Put transfers it back.
// Buffers come back DIRTY — callers must fully overwrite a gotten buffer
// before reading it, and must not touch a buffer after putting it. Put of a
// buffer that is already in the pool panics (double-release), which turns
// the classic silent pool corruption into an immediate, attributable
// failure. Pool is safe for concurrent use (the live fabric's collector
// goroutines Get decode buffers the engine goroutine later Puts); the free
// list is bounded so a producer that puts without ever getting cannot grow
// it without bound.
type Pool struct {
	mu   sync.Mutex
	size int
	free [][]float64
	// inPool tracks the base pointer of every buffer currently in the free
	// list, strictly to detect double-Put. Entries exist only while the
	// buffer is free, so a dropped or gotten buffer can never produce a
	// stale match against recycled memory.
	inPool map[*float64]struct{}

	poison bool
}

// poolCap bounds the free list. Steady-state runs check out at most a
// cohort's worth of buffers at a time, so this is generous; it only guards
// against one-way producers.
const poolCap = 64

// NewPool builds a pool of length-size buffers. The pool starts empty; Get
// allocates until Puts start recycling.
func NewPool(size int) *Pool {
	if size <= 0 {
		panic("tensor: NewPool size must be positive")
	}
	return &Pool{size: size, inPool: make(map[*float64]struct{})}
}

// Size returns the buffer length this pool serves.
func (p *Pool) Size() int { return p.size }

// Get returns a length-Size buffer with unspecified contents. The caller
// owns it until Put.
func (p *Pool) Get() []float64 {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		buf := p.free[n-1]
		p.free = p.free[:n-1]
		delete(p.inPool, &buf[0])
		p.mu.Unlock()
		return buf
	}
	p.mu.Unlock()
	return make([]float64, p.size)
}

// Put returns a buffer to the pool. Buffers of the wrong length are
// rejected (dropped) rather than corrupting the free list; putting a buffer
// that is already free panics. Put accepts buffers the pool did not create
// — a right-sized foreign buffer simply joins the free list.
func (p *Pool) Put(buf []float64) {
	if len(buf) != p.size {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.inPool[&buf[0]]; dup {
		panic(fmt.Sprintf("tensor: Pool.Put of a buffer already in the pool (len %d) — double release", len(buf)))
	}
	if len(p.free) >= poolCap {
		return
	}
	if p.poison {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	p.free = append(p.free, buf)
	p.inPool[&buf[0]] = struct{}{}
}

// SetPoison toggles debug poisoning: when on, Put fills the buffer with
// NaNs, so any use-after-put immediately propagates NaN through whatever
// consumed the stale alias instead of silently reading recycled weights.
// Tests enable it; production paths leave it off (Get contents are
// unspecified either way).
func (p *Pool) SetPoison(on bool) {
	p.mu.Lock()
	p.poison = on
	p.mu.Unlock()
}
