package simnet

import "fmt"

// event is a scheduled callback.
type event struct {
	at  float64
	seq int64 // tie-break: FIFO among equal timestamps
	fn  func()
}

// eventHeap is a binary min-heap of events in (at, seq) order. push and pop
// are typed rather than container/heap's, whose Push(any) and Pop() any box
// every event on the way in and again on the way out. The keys are unique,
// so the pop order is the (at, seq) order whatever the sift details.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	e := s[0]
	s[0] = s[n]
	s[n] = event{} // drop the callback so it can be collected
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.less(r, c) {
			c = r
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return e
}

// New returns a virtual clock at time zero: the one child of a one-child
// MultiClock, whose merged timeline is exactly the child's.
func New() Clock { return NewMultiClock(1).Child(0) }

// MultiClock merges K child virtual timelines into one deterministic event
// loop. It is the simulator's only timeline: a flat run is its one-child
// case (New), and it is the determinism backbone of the hierarchical edge
// topology. Each child handle is a Clock an unmodified engine
// (fl.Method.Start) schedules on; the composer starts the children in
// order, which fixes the seq tie-break among equal timestamps, then Drive
// runs every child's callbacks on the caller's goroutine in one global
// (time, seq) order. A child retires when it stops (its queued events are
// discarded) or its queue drains, at a deterministic point of the Drive
// loop where the OnChildDone hook fires — so cross-child bookkeeping (the
// edge→cloud fold barrier shrinking when an edge finishes) is
// deterministic too.
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
	m.events.push(event{at: t, seq: m.seq*int64(len(m.pending)) + int64(c.i), fn: fn})
}

// owner is the child that scheduled e. It rides in seq's lowest base-K
// digit, so seq order stays scheduling order; with one child, seq is the
// scheduling count itself.
func (m *MultiClock) owner(e event) int { return int(e.seq % int64(len(m.pending))) }

// Run drives the merged timeline (see Drive).
func (c *childClock) Run() { c.m.Drive() }

// Stop discards the child's queued events; the child retires at the
// driver's next retirement check.
func (c *childClock) Stop() { c.m.stopped[c.i] = true }

// retire marks child i retired and fires OnChildDone.
func (m *MultiClock) retire(i int) {
	m.retired[i] = true
	if hook := m.OnChildDone; hook != nil {
		hook(i)
	}
}

// Drive executes the merged timeline: events pop in (time, seq) order and
// run on the caller's goroutine. It returns, with every child retired, once
// no running child has an event queued: a stopped child's leftover events
// are discarded where they lie, not popped.
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
		if !m.running() {
			return
		}
		e := m.events.pop()
		i := m.owner(e)
		m.pending[i]--
		if m.stopped[i] {
			continue // a stopped child's events are discarded
		}
		m.now = e.at
		e.fn()
	}
}

// running reports whether some child that has not stopped has an event
// queued.
func (m *MultiClock) running() bool {
	for i, n := range m.pending {
		if n > 0 && !m.stopped[i] {
			return true
		}
	}
	return false
}
