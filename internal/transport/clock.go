package transport

import (
	"sync"
	"time"

	"repro/internal/simnet"
)

// rtClock implements simnet.Clock on the wall clock: Now is seconds since
// construction, At schedules callbacks in real time, and Run executes every
// callback on a single goroutine — the same serialization discipline the
// discrete-event simulator gives the engine, so pacer code written once
// runs on both timelines.
//
// Dispatches that will post a callback later register themselves with
// hold/release; Run returns only when the queue is empty AND no such work
// is outstanding (or Stop is called).
type rtClock struct {
	start time.Time

	mu   sync.Mutex
	cond *sync.Cond
	// queue[head:] are the posted callbacks not yet run. Run pops by
	// advancing head and resets both once the queue drains, so the
	// backing array is reused rather than regrown by every post.
	queue   []func()
	head    int
	holds   int // in-flight work that will post a callback when it resolves
	stopped bool
}

var _ simnet.Clock = (*rtClock)(nil)

func newRTClock() *rtClock {
	c := &rtClock{start: time.Now()}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Now returns wall-clock seconds since the clock was created.
func (c *rtClock) Now() float64 { return time.Since(c.start).Seconds() }

// post enqueues fn for the Run goroutine. Posts after Stop are discarded —
// a late delivery from an abandoned dispatch must not resurrect the loop.
func (c *rtClock) post(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	if len(c.queue) == cap(c.queue) && c.head > 0 {
		// Full behind a run that has not drained yet: slide the pending
		// callbacks to the front instead of growing.
		n := copy(c.queue, c.queue[c.head:])
		clear(c.queue[n:])
		c.queue, c.head = c.queue[:n], 0
	}
	c.queue = append(c.queue, fn)
	c.cond.Signal()
}

// hold marks one unit of in-flight work; release retires it.
func (c *rtClock) hold() {
	c.mu.Lock()
	c.holds++
	c.mu.Unlock()
}

func (c *rtClock) release() {
	c.mu.Lock()
	c.holds--
	c.cond.Broadcast()
	c.mu.Unlock()
}

// At schedules fn at absolute time t (seconds on this clock). Times at or
// before now run as soon as the loop is free — the common case, since round
// completion stamps are in the past by the time results are delivered.
func (c *rtClock) At(t float64, fn func()) {
	d := time.Duration((t - c.Now()) * float64(time.Second))
	if d <= 0 {
		c.post(fn)
		return
	}
	c.hold()
	time.AfterFunc(d, func() {
		c.post(fn)
		c.release()
	})
}

// Run executes callbacks until Stop is called or the timeline drains.
func (c *rtClock) Run() {
	for {
		c.mu.Lock()
		for !c.stopped && c.head == len(c.queue) && c.holds > 0 {
			c.cond.Wait()
		}
		if c.stopped || c.head == len(c.queue) {
			c.mu.Unlock()
			return
		}
		fn := c.queue[c.head]
		c.queue[c.head] = nil
		if c.head++; c.head == len(c.queue) {
			c.queue, c.head = c.queue[:0], 0
		}
		c.mu.Unlock()
		fn()
	}
}

// Stop halts the loop; queued and future posts are discarded.
func (c *rtClock) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.queue, c.head = nil, 0
	c.cond.Broadcast()
	c.mu.Unlock()
}

// drain blocks until no in-flight work remains — used at shutdown so the
// rounds still in flight resolve before the server closes the connections,
// letting clients exit cleanly.
func (c *rtClock) drain() {
	c.mu.Lock()
	for c.holds > 0 {
		c.cond.Wait()
	}
	c.mu.Unlock()
}
