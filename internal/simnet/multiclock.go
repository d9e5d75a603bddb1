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

	// childNow is each child's own virtual time: the timestamp of its last
	// executed event (advanced to the merged clock on release). Under the
	// serial Drive it always equals the merged clock at the instants the
	// child can observe it, so reporting it from Now() is invisible there;
	// under DriveWorkers it is what lets children run ahead of or behind
	// the merged frontier without observing each other's progress.
	childNow []float64

	// Parallel-drive state (DriveWorkers): which children currently have an
	// event executing on a worker goroutine, and how many are in flight.
	running      []bool
	runningCount int

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
		childNow: make([]float64, k),
		running:  make([]bool, k),
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
// discard one child's events without disturbing the others. sync marks a
// synchronization point (AtSync): an event that may touch cross-child state
// — engine folds, cloud pushes — and therefore executes alone, at a
// quiescent point, under DriveWorkers. The serial Drive ignores the flag
// (every event already runs alone there).
type multiEvent struct {
	at    float64
	seq   int64
	owner int
	sync  bool
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

// Now returns the child's own virtual time. At every instant a child can
// observe under the serial Drive — inside its own callbacks, and in the
// release hook — this equals the merged clock, so the serial semantics are
// unchanged; under DriveWorkers it decouples children so a child running
// behind the merged frontier never sees another child's future.
func (c *childClock) Now() float64 {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	return c.m.childNow[c.i]
}

func (c *childClock) At(t float64, fn func()) {
	c.schedule(t, fn, false)
}

// AtSync schedules fn as a synchronization event (SyncScheduler): a
// callback that may touch cross-child state. Under the serial Drive it is
// exactly At; DriveWorkers runs it alone at a quiescent point.
func (c *childClock) AtSync(t float64, fn func()) {
	c.schedule(t, fn, true)
}

func (c *childClock) schedule(t float64, fn func(), sync bool) {
	m := c.m
	m.mu.Lock()
	defer m.mu.Unlock()
	// The past-check is against the child's OWN time: a child lagging the
	// merged frontier must be able to schedule between its time and the
	// frontier (under the serial Drive the two coincide whenever a child
	// schedules, so this is the historical check there).
	if t < m.childNow[c.i] {
		panic("simnet: scheduling event in the past")
	}
	m.seq++
	m.pending[c.i]++
	heap.Push(&m.events, multiEvent{at: t, seq: m.seq, owner: c.i, sync: sync, fn: fn})
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
	// A released child observes the merged clock from here on (the
	// OnChildDone hook stamps retirements with handle.Now()), exactly as it
	// did when Now was the merged clock.
	if m.now > m.childNow[i] {
		m.childNow[i] = m.now
	}
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
		m.advanceLocked(e)
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

// advanceLocked moves the merged clock and the owning child's clock to the
// event being executed. The merged clock is monotone (events pop in heap
// order; under DriveWorkers a child's late-scheduled event can sort before
// the frontier, which only its own clock follows).
func (m *MultiClock) advanceLocked(e multiEvent) {
	if e.at > m.now {
		m.now = e.at
	}
	if e.at > m.childNow[e.owner] {
		m.childNow[e.owner] = e.at
	}
}

// DriveWorkers executes the merged timeline with up to workers events in
// flight at once; workers <= 1 is exactly Drive. The parallel schedule
// produces bit-identical results to the serial one for engines that mark
// every cross-child interaction as a synchronization event (AtSync — the
// fl pacers' fold sites):
//
//   - Per-child order: a child's events still execute in (time, seq) order
//     — at most one of a child's events is in flight (running[owner]), and
//     the driver always dispatches the global heap minimum, so a child's
//     own sequence is the same sequence Drive executes.
//   - Sync events run alone: a sync event executes only at quiescence
//     (nothing in flight). Every event sorting before it has then executed,
//     and no event sorting before it can be created afterwards (children
//     schedule at or after their own current time), so the cross-child
//     state a sync event observes is a deterministic function of the seed.
//   - Releases are deterministic: a child becomes releasable only when its
//     queue drains or it stops, both of which can only happen at serially
//     executed events (a child's LAST queued event also waits for
//     quiescence below), and the release scan runs exactly at those points
//     — so OnChildDone ordering matches the serial drive's.
//
// Non-sync events of distinct children run concurrently; they must touch
// only owner-local state, which is the engine's threading contract (each
// edge engine owns its environment; only folds reach the shared cloud).
func (m *MultiClock) DriveWorkers(workers int) {
	if workers <= 1 {
		m.Drive()
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.runningCount == 0 {
			// Quiescent bookkeeping, exactly the serial Drive's: release
			// children that cannot progress, drop stopped children's events.
			for i := range m.arrived {
				if m.arrived[i] && !m.released[i] && (m.stopped[i] || m.pending[i] == 0) {
					m.releaseLocked(i)
				}
			}
			for len(m.events) > 0 && m.stopped[m.events[0].owner] {
				e := heap.Pop(&m.events).(multiEvent)
				m.pending[e.owner]--
			}
			if len(m.events) == 0 {
				break
			}
		}
		if len(m.events) == 0 {
			// In-flight events may still schedule; wait for a completion.
			m.cond.Wait()
			continue
		}
		e := m.events[0]
		if m.stopped[e.owner] {
			heap.Pop(&m.events)
			m.pending[e.owner]--
			continue
		}
		if e.sync || m.pending[e.owner] == 1 {
			// Synchronization points and a child's last queued event run
			// alone on this goroutine, after everything in flight lands.
			if m.runningCount > 0 {
				m.cond.Wait()
				continue
			}
			heap.Pop(&m.events)
			m.pending[e.owner]--
			m.advanceLocked(e)
			m.mu.Unlock()
			e.fn()
			m.mu.Lock()
			continue
		}
		if m.running[e.owner] || m.runningCount >= workers {
			m.cond.Wait()
			continue
		}
		heap.Pop(&m.events)
		m.pending[e.owner]--
		m.advanceLocked(e)
		m.running[e.owner] = true
		m.runningCount++
		go func(e multiEvent) {
			e.fn()
			m.mu.Lock()
			m.running[e.owner] = false
			m.runningCount--
			m.cond.Broadcast()
			m.mu.Unlock()
		}(e)
	}
	for i := range m.arrived {
		if !m.released[i] {
			m.releaseLocked(i)
		}
	}
}
