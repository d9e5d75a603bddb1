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
	pop, err := NewPopulation(ClusterConfig{NumClients: 50, NumUnstable: 5, DropHorizon: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 5)
	unstable := 0
	for id, c := range materializeAll(pop) {
		part := pop.Part(id)
		counts[part]++
		want := delayRanges[part]
		if c.DelayLo != want[0] || c.DelayHi != want[1] {
			t.Fatalf("client %d delay range %v-%v for part %d", id, c.DelayLo, c.DelayHi, part)
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
	cl, err := clients(ClusterConfig{NumClients: 50, PartSizes: sizes, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 5)
	for _, c := range cl {
		counts[partOf(c)]++
	}
	for p := range sizes {
		if counts[p] != sizes[p] {
			t.Fatalf("part %d has %d clients, want %d", p, counts[p], sizes[p])
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewPopulation(ClusterConfig{NumClients: 0}); err == nil {
		t.Fatal("zero clients accepted")
	}
	if _, err := NewPopulation(ClusterConfig{NumClients: 10, PartSizes: []int{3, 3}}); err == nil {
		t.Fatal("mismatched part sizes accepted")
	}
	if _, err := NewPopulation(ClusterConfig{NumClients: 10, PartSizes: []int{2, 2, 2, 2, 3}}); err == nil {
		t.Fatal("part sizes summing wrong accepted")
	}
	if _, err := NewPopulation(ClusterConfig{NumClients: 3, NumUnstable: 5}); err == nil {
		t.Fatal("too many unstable clients accepted")
	}
}

func TestClusterDeterminism(t *testing.T) {
	a, _ := clients(ClusterConfig{NumClients: 30, NumUnstable: 3, Seed: 7})
	b, _ := clients(ClusterConfig{NumClients: 30, NumUnstable: 3, Seed: 7})
	for i := range a {
		ca, cb := a[i], b[i]
		if partOf(ca) != partOf(cb) || ca.SecPerBatch != cb.SecPerBatch || ca.DropAt != cb.DropAt {
			t.Fatalf("cluster not deterministic at client %d", i)
		}
		if ca.RoundDelay() != cb.RoundDelay() {
			t.Fatalf("delay streams diverge at client %d", i)
		}
	}
}

func TestRoundDelayWithinRange(t *testing.T) {
	cl, _ := clients(ClusterConfig{NumClients: 25, Seed: 3})
	for id, c := range cl {
		for i := 0; i < 50; i++ {
			d := c.RoundDelay()
			if d < c.DelayLo || (c.DelayHi > c.DelayLo && d >= c.DelayHi) {
				t.Fatalf("client %d delay %v outside [%v,%v)", id, d, c.DelayLo, c.DelayHi)
			}
		}
	}
}

func TestFasterPartsHaveLowerExpectedLatency(t *testing.T) {
	cl, _ := clients(ClusterConfig{NumClients: 50, Seed: 4})
	meanByPart := make([]float64, 5)
	countByPart := make([]int, 5)
	for _, c := range cl {
		meanByPart[partOf(c)] += c.ExpectedLatency(18)
		countByPart[partOf(c)]++
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
	pop, _ := NewPopulation(ClusterConfig{NumClients: 5, UpBW: 1000, ServerBW: 1000, Seed: 5})
	// Five simultaneous 1000-byte uploads: each client takes 1s locally, the
	// server link serializes 5s of traffic → the last arrival is ~5s.
	var last float64
	for range pop.NumClients() {
		if got := pop.UploadArrival(0, 1000); got > last {
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
	cl, _ := clients(ClusterConfig{NumClients: 10, NumUnstable: 10, DropHorizon: 50, Seed: 6})
	for _, c := range cl {
		if c.available(c.DropAt + 1) {
			t.Fatal("client available after drop")
		}
		if !c.available(0) && c.DropAt > 0 {
			t.Fatal("client unavailable before drop")
		}
	}
}

// TestLinkForgetIsExact replays randomized schedules on two links, one that
// forgets the reservations ending before each dispatch's floor and one that
// keeps everything, and requires bit-equal completion times. Each dispatch
// raises the floor (sometimes not at all) and reserves transfers that start
// at or after it, some far in the future and some exactly at the floor or
// one merge tolerance past an interval's end, where a wrong inequality in
// forget would show.
func TestLinkForgetIsExact(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		pruned, full := &Link{Bandwidth: 100}, &Link{Bandwidth: 100}
		floor := 0.0
		var ends []float64
		for dispatch := 0; dispatch < 300; dispatch++ {
			switch r.Intn(4) {
			case 0: // the floor stays
			case 1: // the floor lands exactly on, or just past, an earlier end
				if len(ends) > 0 {
					if e := ends[r.Intn(len(ends))] + mergeEps*float64(r.Intn(3)); e > floor {
						floor = e
					}
				}
			default:
				floor += r.Uniform(0, 3)
			}
			pruned.forget(floor)
			for range 1 + r.Intn(6) {
				start := floor
				switch r.Intn(3) {
				case 0:
					start += r.Uniform(0, 40) // a far-future reservation
				case 1:
					start += r.Uniform(0, 2)
				}
				bytes := 1 + r.Intn(300)
				got, want := pruned.Transfer(start, bytes), full.Transfer(start, bytes)
				if got != want {
					t.Fatalf("seed %d dispatch %d: transfer at %v completes at %v, the full list says %v", seed, dispatch, start, got, want)
				}
				ends = append(ends, got)
			}
		}
		if pruned.Reservations() >= full.Reservations() {
			t.Fatalf("seed %d: the pruned link holds %d intervals, the full one %d: nothing was forgotten", seed, pruned.Reservations(), full.Reservations())
		}
	}
}

// TestPopulationLinksStayBounded runs a long FedAT-shaped schedule through
// the population — five tier loops over the five delay parts, each round
// downloading to a cohort at dispatch and uploading at its completion, the
// next round dispatched at the slowest arrival — and checks that after
// every dispatch each server link holds no more intervals than there are
// transfers still in flight (arriving at or after the floor), that the
// floor never decreases, and that the link's length stays small while the
// transfers reserved grow with the run.
func TestPopulationLinksStayBounded(t *testing.T) {
	pop, err := NewPopulation(ClusterConfig{
		NumClients: 50, SecPerBatch: 0.05, UpBW: 1 << 17, DownBW: 1 << 17, ServerBW: 1 << 18, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	members := make([][]int, len(delayRanges))
	for id := range pop.NumClients() {
		members[pop.part[id]] = append(members[pop.part[id]], id)
	}
	const rounds, cohort, bytes = 3000, 3, 40_000
	clock := New()
	var arrivals []float64 // every transfer's arrival, both directions
	done, peak := 0, 0
	lastFloor := 0.0
	var round func(m int)
	round = func(m int) {
		if done >= rounds {
			clock.Stop()
			return
		}
		done++
		now := clock.Now()
		latest := now
		for j := range cohort {
			rt := pop.Materialize(members[m][(done+j)%len(members[m])])
			down := pop.DownloadArrival(now, bytes)
			up := pop.UploadArrival(down+rt.computeTime(3)+rt.RoundDelay(), bytes)
			arrivals = append(arrivals, down, up)
			latest = max(latest, up)
		}
		if pop.floor < lastFloor || pop.floor != now {
			t.Fatalf("round %d: floor %v after a dispatch at %v (was %v)", done, pop.floor, now, lastFloor)
		}
		lastFloor = pop.floor
		inFlight := 0
		for _, a := range arrivals {
			if a+mergeEps >= pop.floor {
				inFlight++
			}
		}
		for name, l := range map[string]*Link{"uplink": &pop.serverUp, "downlink": &pop.serverDown} {
			if l.Reservations() > inFlight {
				t.Fatalf("round %d: the %s holds %d intervals for %d transfers in flight", done, name, l.Reservations(), inFlight)
			}
			peak = max(peak, l.Reservations())
		}
		clock.At(latest, func() { round(m) })
	}
	for m := range members {
		clock.At(0, func() { round(m) })
	}
	clock.Run()
	if done < rounds {
		t.Fatalf("only %d of %d rounds ran", done, rounds)
	}
	if limit := 2 * len(members) * cohort; peak > limit {
		t.Fatalf("a link peaked at %d intervals over %d transfers, want at most %d", peak, len(arrivals), limit)
	}
}
