package simnet

import (
	"container/heap"
	"fmt"
)

// MultiClock merges K child virtual timelines into one deterministic event
// loop: the determinism backbone of the hierarchical edge topology. Each
// child handle is a Clock an unmodified engine (fl.Method.Start) schedules
// on; the composer starts the children in order, which fixes the seq
// tie-break among equal timestamps, then Drive runs every child's callbacks
// on the caller's goroutine in one global (time, seq) order. A child
// retires when it stops (its queued events are discarded, like Sim.Stop) or
// its queue drains, at a deterministic point of the Drive loop where the
// OnChildDone hook fires — so cross-child bookkeeping (the edge→cloud fold
// barrier shrinking when an edge finishes) is deterministic too.
type MultiClock struct {
	now    float64
	seq    int64
	events eventHeap

	retired []bool // child has left the timeline; OnChildDone fired for it
	stopped []bool // child called Stop; its queued events are discarded
	pending []int  // queued events per child

	// OnChildDone, when set before Drive, is called each time a child
	// retires. It must not schedule events on the retired child.
	OnChildDone func(child int)
}

// NewMultiClock returns a merged timeline for k children, all at time 0.
func NewMultiClock(k int) *MultiClock {
	if k <= 0 {
		panic(fmt.Sprintf("simnet: MultiClock needs at least one child, got %d", k))
	}
	return &MultiClock{
		retired: make([]bool, k),
		stopped: make([]bool, k),
		pending: make([]int, k),
	}
}

// Child returns child i's Clock handle. All handles share one timeline:
// Now is the merged clock, At schedules on the shared heap, Run drives the
// whole merged timeline, Stop discards the child's queued events.
func (m *MultiClock) Child(i int) Clock {
	if i < 0 || i >= len(m.retired) {
		panic(fmt.Sprintf("simnet: MultiClock child %d out of range [0,%d)", i, len(m.retired)))
	}
	return &childClock{m: m, i: i}
}

type childClock struct {
	m *MultiClock
	i int
}

// Now returns the merged clock, which is the child's time at every instant
// it can observe.
func (c *childClock) Now() float64 { return c.m.now }

func (c *childClock) At(t float64, fn func()) {
	m := c.m
	if t < m.now {
		panic("simnet: scheduling event in the past")
	}
	m.seq++
	m.pending[c.i]++
	heap.Push(&m.events, event{at: t, seq: m.seq*int64(len(m.pending)) + int64(c.i), fn: fn})
}

// owner is the child that scheduled e. It rides in seq's lowest base-K
// digit, so seq order stays scheduling order and the merged timeline's
// events are exactly Sim's.
func (m *MultiClock) owner(e event) int { return int(e.seq % int64(len(m.pending))) }

// Run drives the merged timeline (see Drive).
func (c *childClock) Run() { c.m.Drive() }

// Stop discards the child's queued events; the child retires at the
// driver's next retirement check (mirroring Sim.Stop's semantics).
func (c *childClock) Stop() { c.m.stopped[c.i] = true }

// retire marks child i retired and fires OnChildDone.
func (m *MultiClock) retire(i int) {
	m.retired[i] = true
	if hook := m.OnChildDone; hook != nil {
		hook(i)
	}
}

// Drive executes the merged timeline: events pop in (time, seq) order and
// run on the caller's goroutine. It returns when every child has retired.
func (m *MultiClock) Drive() {
	for {
		// Retire every child that can no longer make progress: stopped, or
		// out of queued events. Retiring before popping keeps the hook's
		// ordering deterministic relative to event execution.
		for i := range m.retired {
			if !m.retired[i] && (m.stopped[i] || m.pending[i] == 0) {
				m.retire(i)
			}
		}
		// Discard events owned by stopped children (Sim.Stop semantics).
		for len(m.events) > 0 && m.stopped[m.owner(m.events[0])] {
			e := heap.Pop(&m.events).(event)
			m.pending[m.owner(e)]--
		}
		if len(m.events) == 0 {
			break
		}
		e := heap.Pop(&m.events).(event)
		m.pending[m.owner(e)]--
		m.now = e.at
		e.fn()
	}
	for i := range m.retired {
		if !m.retired[i] {
			m.retire(i)
		}
	}
}
