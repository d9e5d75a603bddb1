package simnet

import (
	"container/heap"
	"fmt"
	"sync"
)

// MultiClock merges K child virtual timelines into one deterministic event
// loop. Each child handle implements Clock, so an unmodified engine
// (fl.Method.RunOn) can run per child on its own goroutine while all
// callbacks — across every child — execute serially on the driver's
// goroutine in one global (time, seq) order. This is the determinism
// backbone of the hierarchical edge topology: K edge engines interleave on
// one merged timeline, so the same seed produces bit-identical runs no
// matter how the host schedules the child goroutines.
//
// The protocol has three phases:
//
//  1. Serial start: the composer starts child goroutine i, then blocks in
//     WaitArrive(i) until that child either parks inside its Clock.Run
//     (after scheduling its initial events) or gives up before reaching
//     Run (MarkDone). Starting children one at a time makes the heap's
//     seq assignment — the FIFO tie-break among equal timestamps —
//     deterministic.
//  2. Drive: with every child parked, the composer's goroutine pops and
//     executes events in (time, seq) order. All scheduling from inside
//     callbacks happens on this one goroutine, preserving the Clock
//     contract ("fn runs inside Run, never concurrently with another
//     callback") for every child at once.
//  3. Release: a child is released from its parked Run when it stops (its
//     remaining events are discarded, like Sim.Stop) or its own queue
//     drains. Release happens at a deterministic point of the Drive loop,
//     and the optional OnChildDone hook fires there — still on the driver
//     goroutine — so cross-child bookkeeping (the edge→cloud fold barrier
//     shrinking when an edge finishes) is deterministic too.
type MultiClock struct {
	mu   sync.Mutex
	cond *sync.Cond

	now    float64
	seq    int64
	events multiHeap

	arrived  []bool // child called Run and is parked (or was released)
	released []bool // child's Run has been allowed to return
	stopped  []bool // child called Stop; its queued events are discarded
	done     []bool // child goroutine finished without parking (or after release)
	pending  []int  // queued events per child

	// OnChildDone, when set before Drive, is called from the Drive loop —
	// on the driver goroutine, at a deterministic point — each time a child
	// is released. It must not schedule events on the released child.
	OnChildDone func(child int)
}

// NewMultiClock returns a merged timeline for k children, all at time 0.
func NewMultiClock(k int) *MultiClock {
	if k <= 0 {
		panic(fmt.Sprintf("simnet: MultiClock needs at least one child, got %d", k))
	}
	m := &MultiClock{
		arrived:  make([]bool, k),
		released: make([]bool, k),
		stopped:  make([]bool, k),
		done:     make([]bool, k),
		pending:  make([]int, k),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Child returns child i's Clock handle. All handles share one timeline:
// Now is the merged clock, At schedules on the shared heap, Run parks until
// the driver releases the child, Stop discards the child's queued events.
func (m *MultiClock) Child(i int) Clock {
	if i < 0 || i >= len(m.arrived) {
		panic(fmt.Sprintf("simnet: MultiClock child %d out of range [0,%d)", i, len(m.arrived)))
	}
	return &childClock{m: m, i: i}
}

// multiEvent tags each scheduled callback with its owning child so Stop can
// discard one child's events without disturbing the others.
type multiEvent struct {
	at    float64
	seq   int64
	owner int
	fn    func()
}

type multiHeap []multiEvent

func (h multiHeap) Len() int { return len(h) }
func (h multiHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h multiHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *multiHeap) Push(x any)   { *h = append(*h, x.(multiEvent)) }
func (h *multiHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type childClock struct {
	m *MultiClock
	i int
}

// Now returns the merged clock: every callback runs on the one driver
// goroutine in time order, so a child's time is the merged clock at every
// instant it can observe.
func (c *childClock) Now() float64 {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	return c.m.now
}

func (c *childClock) At(t float64, fn func()) {
	m := c.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if t < m.now {
		panic("simnet: scheduling event in the past")
	}
	m.seq++
	m.pending[c.i]++
	heap.Push(&m.events, multiEvent{at: t, seq: m.seq, owner: c.i, fn: fn})
}

// Run parks the child until the driver releases it: when the child stops,
// or when its own queue drains with no way to refill (no cross-child
// scheduling exists). The serial-start protocol relies on this parking —
// WaitArrive returns once the child is here.
func (c *childClock) Run() {
	m := c.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.arrived[c.i] = true
	m.cond.Broadcast()
	for !m.released[c.i] {
		m.cond.Wait()
	}
}

// Stop discards the child's queued events; its parked Run returns at the
// driver's next release check (mirroring Sim.Stop's semantics).
func (c *childClock) Stop() {
	m := c.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stopped[c.i] = true
	m.cond.Broadcast()
}

// WaitArrive blocks until child i parks inside Run or is marked done
// (its goroutine gave up before reaching Run). The composer calls it after
// starting each child goroutine, before starting the next.
func (m *MultiClock) WaitArrive(i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.arrived[i] && !m.done[i] {
		m.cond.Wait()
	}
}

// MarkDone records that child i's goroutine has finished. A child that
// errors out before ever calling Run must call this (a deferred MarkDone
// covers both cases), or WaitArrive and Drive would wait forever.
func (m *MultiClock) MarkDone(i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done[i] = true
	m.stopped[i] = true
	m.cond.Broadcast()
}

// releaseLocked marks child i released and fires OnChildDone. Caller holds
// mu; the hook runs unlocked so it may call back into child handles (other
// children's At from a fold, never the released child's).
func (m *MultiClock) releaseLocked(i int) {
	m.released[i] = true
	m.cond.Broadcast()
	if hook := m.OnChildDone; hook != nil {
		m.mu.Unlock()
		hook(i)
		m.mu.Lock()
	}
}

// Drive executes the merged timeline: events pop in (time, seq) order and
// run on the caller's goroutine. It returns when every child has been
// released. Call only after WaitArrive has returned for every child.
func (m *MultiClock) Drive() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		// Release every parked child that can no longer make progress:
		// stopped, or out of queued events. Releasing before popping keeps
		// the hook's ordering deterministic relative to event execution.
		for i := range m.arrived {
			if m.arrived[i] && !m.released[i] && (m.stopped[i] || m.pending[i] == 0) {
				m.releaseLocked(i)
			}
		}
		// Discard events owned by stopped children (Sim.Stop semantics).
		for len(m.events) > 0 && m.stopped[m.events[0].owner] {
			e := heap.Pop(&m.events).(multiEvent)
			m.pending[e.owner]--
		}
		if len(m.events) == 0 {
			break
		}
		e := heap.Pop(&m.events).(multiEvent)
		m.pending[e.owner]--
		m.now = e.at
		m.mu.Unlock()
		e.fn()
		m.mu.Lock()
	}
	for i := range m.arrived {
		if !m.released[i] {
			m.releaseLocked(i)
		}
	}
}
