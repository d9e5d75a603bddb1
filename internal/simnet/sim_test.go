package simnet

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		var fired []float64
		for _, r := range raw {
			tt := float64(r) / 10
			s.At(tt, func() { fired = append(fired, tt) })
		}
		s.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOAmongTies(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken out of FIFO order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	var at1, at2 float64
	s.At(3, func() { at1 = s.Now() })
	s.At(s.Now()+7, func() { at2 = s.Now() })
	s.Run()
	if at1 != 3 || at2 != 7 {
		t.Fatalf("clock wrong: %v %v", at1, at2)
	}
	if s.Now() != 7 {
		t.Fatalf("final clock %v", s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	hits := 0
	s.At(1, func() {
		s.At(s.Now()+1, func() {
			hits++
			if s.Now() != 2 {
				t.Errorf("nested event at %v", s.Now())
			}
		})
	})
	s.Run()
	if hits != 1 {
		t.Fatal("nested event did not fire")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("past scheduling did not panic")
			}
		}()
		s.At(1, func() {})
	})
	s.Run()
}

func TestStopHaltsRun(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		i := i
		s.At(float64(i), func() {
			count++
			if i == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt: %d events fired", count)
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	l := &Link{Bandwidth: 100}
	a := l.Transfer(0, 100) // 1s
	b := l.Transfer(0, 100) // queued behind a
	c := l.Transfer(5, 100) // link free by then
	if a != 1 || b != 2 || c != 6 {
		t.Fatalf("transfers finished at %v %v %v, want 1 2 6", a, b, c)
	}
}

func TestInfiniteLinkIsInstant(t *testing.T) {
	l := &Link{}
	if got := l.Transfer(3, 1<<30); got != 3 {
		t.Fatalf("infinite link took time: %v", got)
	}
}

func TestLinkOutOfOrderReservations(t *testing.T) {
	// A far-future reservation must NOT delay transfers that start
	// earlier: tier 4 reserving its 230s upload at scheduling time was
	// starving tier 0's 5-second rounds before Link used gap allocation.
	l := &Link{Bandwidth: 100}
	late := l.Transfer(230, 100) // [230, 231]
	early := l.Transfer(5, 100)  // should land [5, 6], not queue at 231
	if late != 231 {
		t.Fatalf("late transfer finished at %v, want 231", late)
	}
	if early != 6 {
		t.Fatalf("early transfer finished at %v, want 6 (starved by future reservation)", early)
	}
}

func TestLinkGapTooSmallSkipped(t *testing.T) {
	l := &Link{Bandwidth: 1}
	l.Transfer(0, 10)  // [0,10]
	l.Transfer(12, 10) // [12,22]
	// A 5-second transfer starting at 8: gap [10,12) is too small, so it
	// must run after 22.
	if got := l.Transfer(8, 5); got != 27 {
		t.Fatalf("transfer finished at %v, want 27", got)
	}
	// A 2-second transfer starting at 9 fits exactly in [10,12).
	if got := l.Transfer(9, 2); got != 12 {
		t.Fatalf("gap-fit transfer finished at %v, want 12", got)
	}
}

func TestLinkIntervalsMerge(t *testing.T) {
	l := &Link{Bandwidth: 1}
	for i := 0; i < 100; i++ {
		l.Transfer(0, 1) // all back-to-back from 0
	}
	if l.Reservations() != 1 {
		t.Fatalf("adjacent reservations did not merge: %d intervals", l.Reservations())
	}
}

func TestLinkQueueMonotone(t *testing.T) {
	// Property: completion times are non-decreasing when requests arrive in
	// time order.
	f := func(raw []uint8) bool {
		l := &Link{Bandwidth: 10}
		now, last := 0.0, 0.0
		for _, r := range raw {
			now += float64(r%5) / 10
			fin := l.Transfer(now, int(r)+1)
			if fin < last || fin < now {
				return false
			}
			last = fin
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClusterPartSizesAndRanges(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{NumClients: 50, NumUnstable: 5, DropHorizon: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 5)
	unstable := 0
	for _, c := range cl.Clients {
		counts[c.Part]++
		want := delayRanges[c.Part]
		if c.DelayLo != want[0] || c.DelayHi != want[1] {
			t.Fatalf("client %d delay range %v-%v for part %d", c.ID, c.DelayLo, c.DelayHi, c.Part)
		}
		if !math.IsInf(c.DropAt, 1) {
			unstable++
			if c.DropAt <= 0 || c.DropAt > 100 {
				t.Fatalf("drop time %v out of horizon", c.DropAt)
			}
		}
	}
	for p, n := range counts {
		if n != 10 {
			t.Fatalf("part %d has %d clients, want 10", p, n)
		}
	}
	if unstable != 5 {
		t.Fatalf("%d unstable clients, want 5", unstable)
	}
}

func TestClusterCustomPartSizes(t *testing.T) {
	sizes := []int{20, 10, 10, 5, 5}
	cl, err := NewCluster(ClusterConfig{NumClients: 50, PartSizes: sizes, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 5)
	for _, c := range cl.Clients {
		counts[c.Part]++
	}
	for p := range sizes {
		if counts[p] != sizes[p] {
			t.Fatalf("part %d has %d clients, want %d", p, counts[p], sizes[p])
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{NumClients: 0}); err == nil {
		t.Fatal("zero clients accepted")
	}
	if _, err := NewCluster(ClusterConfig{NumClients: 10, PartSizes: []int{3, 3}}); err == nil {
		t.Fatal("mismatched part sizes accepted")
	}
	if _, err := NewCluster(ClusterConfig{NumClients: 10, PartSizes: []int{2, 2, 2, 2, 3}}); err == nil {
		t.Fatal("part sizes summing wrong accepted")
	}
	if _, err := NewCluster(ClusterConfig{NumClients: 3, NumUnstable: 5}); err == nil {
		t.Fatal("too many unstable clients accepted")
	}
}

func TestClusterDeterminism(t *testing.T) {
	a, _ := NewCluster(ClusterConfig{NumClients: 30, NumUnstable: 3, Seed: 7})
	b, _ := NewCluster(ClusterConfig{NumClients: 30, NumUnstable: 3, Seed: 7})
	for i := range a.Clients {
		ca, cb := a.Clients[i], b.Clients[i]
		if ca.Part != cb.Part || ca.SecPerBatch != cb.SecPerBatch || ca.DropAt != cb.DropAt {
			t.Fatalf("cluster not deterministic at client %d", i)
		}
		if ca.RoundDelay() != cb.RoundDelay() {
			t.Fatalf("delay streams diverge at client %d", i)
		}
	}
}

func TestRoundDelayWithinRange(t *testing.T) {
	cl, _ := NewCluster(ClusterConfig{NumClients: 25, Seed: 3})
	for _, c := range cl.Clients {
		for i := 0; i < 50; i++ {
			d := c.RoundDelay()
			if d < c.DelayLo || (c.DelayHi > c.DelayLo && d >= c.DelayHi) {
				t.Fatalf("client %d delay %v outside [%v,%v)", c.ID, d, c.DelayLo, c.DelayHi)
			}
		}
	}
}

func TestFasterPartsHaveLowerExpectedLatency(t *testing.T) {
	cl, _ := NewCluster(ClusterConfig{NumClients: 50, Seed: 4})
	meanByPart := make([]float64, 5)
	countByPart := make([]int, 5)
	for _, c := range cl.Clients {
		meanByPart[c.Part] += c.ExpectedLatency(18)
		countByPart[c.Part]++
	}
	for p := range meanByPart {
		meanByPart[p] /= float64(countByPart[p])
	}
	for p := 1; p < 5; p++ {
		if meanByPart[p] <= meanByPart[p-1] {
			t.Fatalf("part %d latency %v not above part %d latency %v",
				p, meanByPart[p], p-1, meanByPart[p-1])
		}
	}
}

func TestUploadArrivalBottleneck(t *testing.T) {
	cl, _ := NewCluster(ClusterConfig{NumClients: 5, UpBW: 1000, ServerBW: 1000, Seed: 5})
	// Five simultaneous 1000-byte uploads: each client takes 1s locally, the
	// server link serializes 5s of traffic → the last arrival is ~5s.
	var last float64
	for _, c := range cl.Clients {
		if got := cl.UploadArrival(0, c, 1000); got > last {
			last = got
		}
	}
	if last < 4.9 {
		t.Fatalf("server link did not serialize: last arrival %v", last)
	}
}

func TestDropsAreHonored(t *testing.T) {
	r := rng.New(1)
	_ = r
	cl, _ := NewCluster(ClusterConfig{NumClients: 10, NumUnstable: 10, DropHorizon: 50, Seed: 6})
	for _, c := range cl.Clients {
		if c.Available(c.DropAt + 1) {
			t.Fatal("client available after drop")
		}
		if !c.Available(0) && c.DropAt > 0 {
			t.Fatal("client unavailable before drop")
		}
	}
}
