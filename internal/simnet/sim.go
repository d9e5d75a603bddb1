// Package simnet is the discrete-event cluster simulator the experiments
// run on. The paper evaluates on real clusters but simulates heterogeneity
// by injecting random per-round delays into client computations (§6
// "Simulating Different Performance Tiers"); this package injects the same
// delays into a virtual clock instead of a wall clock, so time-to-accuracy
// experiments are deterministic and run in seconds.
//
// The simulator provides three building blocks:
//
//   - Sim: an event loop with a virtual clock (events fire in time order,
//     FIFO among ties),
//   - Link: a serialized bandwidth resource modelling the server's shared
//     uplink/downlink — the thing asynchronous FL methods bottleneck on,
//   - Cluster: the client population with per-part delay ranges, per-client
//     compute speeds and the paper's 10 "unstable" clients that drop out
//     permanently at a random time.
package simnet

import (
	"container/heap"
	"math"
)

// Clock is the timeline half of an execution fabric: the surface the
// engine's pacers use to observe time and sequence callbacks. Sim implements
// it with a virtual clock (the simulated fabric); the live TCP transport
// implements it with a wall clock behind a serialized run loop. Both promise
// the same discipline: every callback runs on the single goroutine inside
// Run (for a MultiClock child, inside the merged Drive), so engine state
// never needs locking.
type Clock interface {
	// Now returns the current time in seconds.
	Now() float64
	// At schedules fn at absolute time t. fn runs inside Run (or Drive),
	// never concurrently with another callback.
	At(t float64, fn func())
	// Run executes callbacks until the timeline drains or Stop is called.
	Run()
	// Stop halts the loop; callbacks not yet executed are discarded.
	Stop()
}

var _ Clock = (*Sim)(nil)

// event is a scheduled callback.
type event struct {
	at  float64
	seq int64 // tie-break: FIFO among equal timestamps
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is the event loop. The zero value is ready to use at time 0.
type Sim struct {
	now     float64
	events  eventHeap
	seq     int64
	stopped bool
}

// New returns a simulator at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute time t. Scheduling in the past panics — it
// would silently reorder causality.
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic("simnet: scheduling event in the past")
	}
	s.seq++
	heap.Push(&s.events, event{at: t, seq: s.seq, fn: fn})
}

// Run fires events until the queue drains or Stop is called.
func (s *Sim) Run() {
	for !s.stopped && len(s.events) > 0 {
		e := heap.Pop(&s.events).(event)
		s.now = e.at
		e.fn()
	}
}

// Stop halts the loop; queued events are discarded by the next Run.
func (s *Sim) Stop() { s.stopped = true }

// Link is a serialized bandwidth resource (bytes/second). Concurrent
// transfers queue for capacity — this is what turns "all clients talk to
// the server at once" into the communication bottleneck the paper
// attributes to asynchronous FL.
//
// Reservations may arrive in any order of start time (the event-driven
// runners reserve a whole round's transfers when the round is scheduled, so
// a slow tier reserves far-future slots before a fast tier reserves earlier
// ones). Each transfer therefore gets the earliest free GAP at or after its
// start time, kept in a sorted, merged busy-interval list — a plain
// "free-at" cursor would let a far-future reservation block every earlier
// one.
type Link struct {
	Bandwidth float64 // bytes/second; <= 0 means infinite
	busy      []interval
}

type interval struct{ start, end float64 }

// Transfer reserves capacity for a payload starting no earlier than start
// and returns the completion time.
func (l *Link) Transfer(start float64, bytes int) float64 {
	if l.Bandwidth <= 0 {
		return start
	}
	d := float64(bytes) / l.Bandwidth
	if d <= 0 {
		return start
	}
	at := start
	idx := len(l.busy)
	for i, iv := range l.busy {
		if iv.end <= at {
			continue // interval entirely before our start
		}
		gapStart := at
		if iv.start > gapStart {
			// Gap before this interval: does the transfer fit?
			if iv.start-gapStart >= d {
				idx = i
				break
			}
		}
		// Overlaps or gap too small: push past this interval.
		if iv.end > at {
			at = iv.end
		}
		idx = i + 1
	}
	l.insert(idx, interval{start: at, end: at + d})
	return at + d
}

// insert places iv at position idx and merges adjacent touching intervals
// so the busy list stays small.
func (l *Link) insert(idx int, iv interval) {
	l.busy = append(l.busy, interval{})
	copy(l.busy[idx+1:], l.busy[idx:])
	l.busy[idx] = iv
	// Merge backwards and forwards while neighbours touch.
	const eps = 1e-9
	i := idx
	if i > 0 && l.busy[i-1].end+eps >= l.busy[i].start {
		l.busy[i-1].end = max(l.busy[i-1].end, l.busy[i].end)
		l.busy = append(l.busy[:i], l.busy[i+1:]...)
		i--
	}
	for i+1 < len(l.busy) && l.busy[i].end+eps >= l.busy[i+1].start {
		l.busy[i].end = max(l.busy[i].end, l.busy[i+1].end)
		l.busy = append(l.busy[:i+1], l.busy[i+2:]...)
	}
}

// Reservations reports the current busy-interval count (for tests).
func (l *Link) Reservations() int { return len(l.busy) }

// Reset clears all reservations (used between experiment repetitions).
func (l *Link) Reset() { l.busy = nil }

// Inf is the canonical "never" timestamp for drop times.
var Inf = math.Inf(1)
