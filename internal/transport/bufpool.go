package transport

import (
	"fmt"
	"sync"
)

// framePool is the free list of frame buffers behind the allocation-free
// wire path: every frame this package builds or reads lives in a buffer
// borrowed from it for as long as the round needs the bytes and not a
// moment longer — a connection that is idle (a client training, a server
// waiting for a header) holds none.
//
// Ownership follows tensor.Pool (DESIGN.md §2a): Get transfers exclusive
// ownership to the caller, Put transfers it back, buffers come back dirty,
// and nothing may touch a buffer after putting it. Put of a buffer that is
// already free panics. Unlike the weight pool the buffers are not
// equal-sized: frames differ by codec and direction, so Get takes the
// capacity it needs and an undersized buffer is dropped for a fresh one —
// the list converges on buffers that fit the largest frame in use. The
// list is bounded, so a burst of concurrent rounds cannot pin its peak.
type framePool struct {
	mu   sync.Mutex
	free [][]byte
	// inPool holds the base pointer of every free buffer, to detect a
	// double Put (see tensor.Pool).
	inPool map[*byte]struct{}
	poison bool
}

// framePoolCap bounds the free list; rounds in flight beyond it allocate.
const framePoolCap = 64

// poisonByte is what SetPoison fills returned buffers with: it is neither
// a codec wire id nor a polyline character, so a model message read out of
// a returned buffer fails to decode instead of yielding stale weights.
const poisonByte = 0x2A

// frames is the process-wide pool: clients, servers, roots and uplinks in
// one process (tests, the in-process benchmark deployment) share it.
var frames = &framePool{inPool: make(map[*byte]struct{})}

// Get returns an empty buffer with capacity at least n. The caller owns it
// — and whatever it grows into by append — until Put.
func (p *framePool) Get(n int) []byte {
	var buf []byte
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		buf = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		delete(p.inPool, &buf[0])
	}
	p.mu.Unlock()
	if cap(buf) < n {
		return make([]byte, 0, n)
	}
	return buf[:0]
}

// Put returns a buffer (or any slice sharing its start, such as the
// payload a read returned) to the pool.
func (p *framePool) Put(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.inPool[&buf[0]]; dup {
		panic(fmt.Sprintf("transport: frame buffer (cap %d) returned twice", cap(buf)))
	}
	if len(p.free) >= framePoolCap {
		return
	}
	if p.poison {
		for i := range buf {
			buf[i] = poisonByte
		}
	}
	p.free = append(p.free, buf)
	p.inPool[&buf[0]] = struct{}{}
}

// SetPoison toggles debug poisoning: when on, Put overwrites the buffer,
// so a read after return decodes garbage (and races with the write under
// -race) instead of silently seeing the old frame. Tests enable it.
func (p *framePool) SetPoison(on bool) {
	p.mu.Lock()
	p.poison = on
	p.mu.Unlock()
}
