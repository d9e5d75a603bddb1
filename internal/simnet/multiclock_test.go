package simnet

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// runChildren starts each child's body in order — a body only schedules
// its initial events — then drives the merged timeline.
func runChildren(m *MultiClock, bodies []func(c Clock)) {
	for i, body := range bodies {
		body(m.Child(i))
	}
	m.Drive()
}

// TestMultiClockMergesTimelines checks that events from different children
// interleave in global (time, seq) order, that Now is the shared clock, and
// that the trace is deterministic across repeated runs.
func TestMultiClockMergesTimelines(t *testing.T) {
	trace := func() []string {
		var log []string
		m := NewMultiClock(2)
		body := func(id int) func(c Clock) {
			return func(c Clock) {
				var tick func(n int)
				tick = func(n int) {
					if n >= 4 {
						return
					}
					log = append(log, fmt.Sprintf("c%d@%g", id, c.Now()))
					c.At(c.Now()+float64(1+id), func() { tick(n + 1) })
				}
				c.At(float64(id), func() { tick(0) })
			}
		}
		runChildren(m, []func(c Clock){body(0), body(1)})
		return log
	}
	got := trace()
	want := []string{
		"c0@0", "c1@1", "c0@1", "c0@2", "c1@3", "c0@3", "c1@5", "c1@7",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged trace = %v, want %v", got, want)
	}
	for rep := 0; rep < 5; rep++ {
		if again := trace(); !reflect.DeepEqual(again, got) {
			t.Fatalf("rep %d: trace %v != first %v", rep, again, got)
		}
	}
}

// TestMultiClockFIFOAmongTies pins the tie-break: equal timestamps fire in
// scheduling order, and starting the children in order makes that order
// the child-start order.
func TestMultiClockFIFOAmongTies(t *testing.T) {
	var log []string
	m := NewMultiClock(3)
	body := func(id int) func(c Clock) {
		return func(c Clock) {
			c.At(1, func() { log = append(log, fmt.Sprintf("c%d", id)) })
		}
	}
	runChildren(m, []func(c Clock){body(0), body(1), body(2)})
	if want := []string{"c0", "c1", "c2"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("tie order = %v, want %v", log, want)
	}
}

// TestMultiClockStopDiscardsOneChild checks Stop per child:
// a stopped child's queued events vanish, the others keep running.
func TestMultiClockStopDiscardsOneChild(t *testing.T) {
	var log []string
	m := NewMultiClock(2)
	quitter := func(c Clock) {
		c.At(1, func() {
			log = append(log, "quit@1")
			c.Stop()
		})
		c.At(2, func() { log = append(log, "quitter@2 (must not fire)") })
	}
	stayer := func(c Clock) {
		c.At(3, func() { log = append(log, "stayer@3") })
	}
	runChildren(m, []func(c Clock){quitter, stayer})
	if want := []string{"quit@1", "stayer@3"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

// TestMultiClockOnChildDone checks the retirement hook fires once per child
// in deterministic order: first the child whose queue drains earliest, then
// the rest.
func TestMultiClockOnChildDone(t *testing.T) {
	var order []int
	m := NewMultiClock(2)
	m.OnChildDone = func(i int) { order = append(order, i) }
	short := func(c Clock) { c.At(1, func() {}) }
	long := func(c Clock) { c.At(5, func() {}) }
	runChildren(m, []func(c Clock){long, short})
	if want := []int{1, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("retirement order = %v, want %v", order, want)
	}
}

// TestMultiClockPastSchedulingPanics: the causality guard holds on a merged
// timeline.
func TestMultiClockPastSchedulingPanics(t *testing.T) {
	m := NewMultiClock(2)
	panicked := false
	scheduler := func(c Clock) {
		c.At(5, func() {
			defer func() { panicked = recover() != nil }()
			c.At(1, func() {}) // the merged clock is already at 5
		})
	}
	idle := func(c Clock) {}
	runChildren(m, []func(c Clock){scheduler, idle})
	if !panicked {
		t.Fatal("scheduling in the past did not panic")
	}
}

// TestMultiClockStoppedDriveAllocatesNothing: Drive allocates nothing of
// its own. A flat run that stops with events still queued leaves them where
// they lie, and a run that drains its queue pops each event by value: the
// heap is typed, so neither path boxes an event the way container/heap's
// Pop() any did once per event.
func TestMultiClockStoppedDriveAllocatesNothing(t *testing.T) {
	fn := func() {}
	for _, c := range []struct {
		name string
		stop bool
		left int // events still queued after Drive
	}{
		{"stopped", true, 1000},
		{"drained", false, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewMultiClock(1)
			ch := m.Child(0)
			for i := 0; i < 1000; i++ {
				ch.At(float64(i%37), fn)
			}
			if c.stop {
				ch.Stop()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m.Drive()
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("Drive allocated %d times", n)
			}
			if !m.retired[0] || len(m.events) != c.left {
				t.Fatalf("retired %v with %d events left", m.retired[0], len(m.events))
			}
		})
	}
}
