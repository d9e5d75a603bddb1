package tiering

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// Credits returns the remaining credits of each tier (copy).
func (s *TiFLSelector) Credits() []int { return slices.Clone(s.credits) }

func TestPartitionIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%60) + 5
		m := int(mRaw)%5 + 1
		if m > n {
			m = n
		}
		r := rng.New(seed)
		lat := make([]float64, n)
		for i := range lat {
			lat[i] = r.Float64() * 30
		}
		tiers, err := Partition(lat, m)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for _, members := range tiers.Members {
			for _, id := range members {
				if id < 0 || int(id) >= n || seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionOrdersByLatency(t *testing.T) {
	lat := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 0}
	tiers, err := Partition(lat, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Every member of tier k must be no slower than every member of k+1.
	for k := 0; k+1 < tiers.M(); k++ {
		maxK := 0.0
		for _, id := range tiers.Members[k] {
			if lat[id] > maxK {
				maxK = lat[id]
			}
		}
		for _, id := range tiers.Members[k+1] {
			if lat[id] < maxK {
				t.Fatalf("tier %d member %d (lat %v) faster than tier %d max %v", k+1, id, lat[id], k, maxK)
			}
		}
	}
}

// TestPartitionMatchesStableSort pins the partition to the order it has
// always had — a stable sort by latency over ascending ids — now that it is
// computed by a radix sort on a float key, across sizes and under heavy ties
// (latencies drawn from a handful of values).
func TestPartitionMatchesStableSort(t *testing.T) {
	for _, n := range []int{1, 2, 17, 1000, 1_000_000} {
		if n > 1000 && testing.Short() {
			continue
		}
		for _, distinct := range []int{3, n} {
			r := rng.New(uint64(n + distinct))
			lat := make([]float64, n)
			for i := range lat {
				lat[i] = float64(r.Intn(distinct)) * 0.25
			}
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			sort.SliceStable(want, func(a, b int) bool { return lat[want[a]] < lat[want[b]] })

			tiers, err := Partition(lat, min(n, 5))
			if err != nil {
				t.Fatal(err)
			}
			if got := slices.Concat(tiers.Members...); !slices.Equal(got, want) {
				t.Fatalf("n=%d, %d distinct latencies: partition order differs from the stable sort by latency", n, distinct)
			}
		}
	}
}

func TestPartitionAssignmentConsistent(t *testing.T) {
	lat := []float64{3, 1, 2, 5, 4, 0}
	tiers, err := Partition(lat, 3)
	if err != nil {
		t.Fatal(err)
	}
	for tier, members := range tiers.Members {
		for _, id := range members {
			if int(tiers.Assignment()[id]) != tier {
				t.Fatalf("assignment mismatch for client %d", id)
			}
		}
	}
}

func TestPartitionRemainderGoesToFastTiers(t *testing.T) {
	lat := make([]float64, 11)
	for i := range lat {
		lat[i] = float64(i)
	}
	tiers, err := Partition(lat, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers.Members[0]) != 3 {
		t.Fatalf("fastest tier got %d members, want 3", len(tiers.Members[0]))
	}
	for k := 1; k < 5; k++ {
		if len(tiers.Members[k]) != 2 {
			t.Fatalf("tier %d got %d members, want 2", k, len(tiers.Members[k]))
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	lat := []float64{1, 2, 3}
	if _, err := Partition(lat, 0); err == nil {
		t.Fatal("zero tiers accepted")
	}
	if _, err := Partition(lat, -1); err == nil {
		t.Fatal("negative tier count accepted")
	}
	if _, err := Partition(lat, 4); err == nil {
		t.Fatal("more tiers than clients accepted")
	}
	if _, err := Partition(nil, 1); err == nil {
		t.Fatal("a tier over no clients accepted")
	}
}

func TestTiFLSelectorFavorsLowAccuracy(t *testing.T) {
	s := NewTiFLSelector(3, 1000000, 10)
	s.UpdateAccuracies([]float64{0.9, 0.5, 0.1})
	r := rng.New(1)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[s.Select(r)]++
	}
	if !(counts[2] > counts[1] && counts[1] > counts[0]) {
		t.Fatalf("selection does not favor low accuracy: %v", counts)
	}
	// probs ∝ 0.1 : 0.5 : 0.9 → tier2/tier0 ≈ 9
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 6 || ratio > 12 {
		t.Fatalf("selection ratio %v, want ~9", ratio)
	}
}

func TestTiFLCreditsDecrementAndReplenish(t *testing.T) {
	s := NewTiFLSelector(2, 2, 5)
	r := rng.New(2)
	for i := 0; i < 4; i++ {
		s.Select(r)
	}
	c := s.Credits()
	if c[0]+c[1] != 0 {
		t.Fatalf("credits not exhausted: %v", c)
	}
	// Next select must replenish rather than fail.
	tier := s.Select(r)
	if tier < 0 || tier > 1 {
		t.Fatalf("invalid tier %d", tier)
	}
	c = s.Credits()
	if c[0]+c[1] != 3 {
		t.Fatalf("credits after replenish: %v", c)
	}
}

func TestTiFLSkipsSpentTiers(t *testing.T) {
	s := NewTiFLSelector(2, 1, 100)
	s.UpdateAccuracies([]float64{0.0, 0.99})
	r := rng.New(3)
	first := s.Select(r)
	second := s.Select(r)
	if first == second {
		t.Fatalf("second selection reused spent tier %d", first)
	}
}

func TestNeedsAccuracyRefresh(t *testing.T) {
	s := NewTiFLSelector(2, 100, 3)
	r := rng.New(4)
	if s.NeedsAccuracyRefresh() {
		t.Fatal("refresh requested before any selection")
	}
	s.Select(r)
	s.Select(r)
	if s.NeedsAccuracyRefresh() {
		t.Fatal("refresh too early")
	}
	s.Select(r)
	if !s.NeedsAccuracyRefresh() {
		t.Fatal("refresh not requested at interval")
	}
}

func TestSelectorDeterminism(t *testing.T) {
	mk := func() []int {
		s := NewTiFLSelector(4, 10, 5)
		s.UpdateAccuracies([]float64{0.2, 0.4, 0.6, 0.8})
		r := rng.New(9)
		out := make([]int, 50)
		for i := range out {
			out[i] = s.Select(r)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("selector not deterministic")
		}
	}
}
