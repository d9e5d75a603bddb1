package tiering

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/simnet"
)

// refPartition is the reference partition: the comparison sort Partition
// ran before the radix sort — ids ordered by cmp.Compare on latency, then
// by id — cut into m tiers with the remainder on the fastest, each tier its
// own copy. It defines the order; the tests and the fuzz target below hold
// Partition to it element for element.
func refPartition(latencies []float64, m int) (*Tiers, error) {
	n := len(latencies)
	if m <= 0 || m > n {
		return nil, fmt.Errorf("tiering: cannot split %d clients into %d tiers", n, m)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Latency, then id: a total order, so the unstable sort lands where a
	// stable sort by latency over ascending ids does.
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(latencies[a], latencies[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	t := &Tiers{
		Members:    make([][]int, m),
		Assignment: make([]int, n),
	}
	base, rem := n/m, n%m
	pos := 0
	for tier := range t.Members {
		size := base
		if tier < rem {
			size++
		}
		t.Members[tier] = make([]int, size)
		copy(t.Members[tier], order[pos:pos+size])
		pos += size
		for _, id := range t.Members[tier] {
			t.Assignment[id] = tier
		}
	}
	return t, nil
}

// partitionMatchesReference runs Partition and the reference over one input
// and requires the same members in the same order in every tier, the same
// tier for every id, and tier views clipped to their length.
func partitionMatchesReference(t testing.TB, lat []float64, m int) {
	t.Helper()
	got, err := Partition(lat, m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refPartition(lat, m)
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != want.M() {
		t.Fatalf("n=%d m=%d: %d tiers, reference %d", len(lat), m, got.M(), want.M())
	}
	for tier, w := range want.Members {
		g := got.Members[tier]
		if len(g) != len(w) || cap(g) != len(g) {
			t.Fatalf("n=%d m=%d tier %d: len %d cap %d, reference len %d", len(lat), m, tier, len(g), cap(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("n=%d m=%d tier %d position %d: client %d (latency %v), reference client %d (latency %v)",
					len(lat), m, tier, i, g[i], lat[g[i]], w[i], lat[w[i]])
			}
		}
	}
	for id, tier := range want.Assignment {
		if got.Assignment[id] != tier {
			t.Fatalf("n=%d m=%d: client %d in tier %d, reference tier %d", len(lat), m, id, got.Assignment[id], tier)
		}
	}
}

// partitionSpecials are the values a float-to-key map could mishandle: NaN
// of both signs and another payload, both zeros, both infinities, the
// denormal range's ends, the extremes and plain negatives.
var partitionSpecials = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000001),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
	math.MaxFloat64, -math.MaxFloat64, -1, -0.25, -1e9,
}

// latencyFamilies are the inputs TestPartitionMatchesReference draws: ties
// everywhere, few distinct values, presorted both ways, continuous, and a
// continuous draw with about one value in eight replaced by a special.
var latencyFamilies = []struct {
	name string
	gen  func(g *rng.RNG, i, n int) float64
}{
	{"equal", func(*rng.RNG, int, int) float64 { return 3.5 }},
	{"3-distinct", func(g *rng.RNG, _, _ int) float64 { return float64(g.Intn(3)) * 0.25 }},
	{"sorted", func(_ *rng.RNG, i, _ int) float64 { return float64(i) * 0.01 }},
	{"reverse", func(_ *rng.RNG, i, n int) float64 { return float64(n-i) * 0.01 }},
	{"uniform", func(g *rng.RNG, _, _ int) float64 { return g.Float64() * 30 }},
	{"planted", func(g *rng.RNG, _, _ int) float64 {
		if g.Intn(8) == 0 {
			return partitionSpecials[g.Intn(len(partitionSpecials))]
		}
		return g.Float64() * 30
	}},
}

// TestPartitionMatchesReference: the radix partition against the
// comparison sort across sizes on both sides of a digit (256) and of the
// 11-bit radix (2049), tier counts from one to one tier per client, and
// every latency family.
func TestPartitionMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 17, 255, 256, 257, 2049, 100_000, 1_000_000} {
		if n > 2049 && testing.Short() {
			continue
		}
		for fi, fam := range latencyFamilies {
			g := rng.New(uint64(n*len(latencyFamilies) + fi))
			lat := make([]float64, n)
			for i := range lat {
				lat[i] = fam.gen(g, i, n)
			}
			for _, m := range []int{1, 2, 5, n} {
				if m > n {
					continue
				}
				t.Run(fmt.Sprintf("n=%d/%s/m=%d", n, fam.name, m), func(t *testing.T) {
					partitionMatchesReference(t, lat, m)
				})
			}
		}
	}
}

// FuzzPartitionAgainstReference holds Partition to the reference over raw
// float bits — each 8-byte word of raw is one client's latency, so the
// fuzzer owns every bit, NaN payloads and signs included — and a tier count
// folded into [1, n].
func FuzzPartitionAgainstReference(f *testing.F) {
	word := func(vs ...float64) []byte {
		var raw []byte
		for _, v := range vs {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		return raw
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	f.Add(word(3, 1, 2, 5, 4, 0), uint16(3))
	f.Add(word(7, 7, 7, 7, 7), uint16(2))                                    // all ties
	f.Add(word(nan, 1, nan, 0, nan), uint16(2))                              // NaN below everything, ties by id
	f.Add(word(negZero, 0, negZero, 0), uint16(2))                           // −0 ties with +0
	f.Add(word(inf, -inf, 0, 1, -1), uint16(5))                              // both infinities
	f.Add(word(5e-324, -5e-324, 0, negZero, 1e-310), uint16(1))              // denormals around zero
	f.Add(word(math.MaxFloat64, -math.MaxFloat64, inf, -inf), uint16(4))     // extremes
	f.Add(word(-1, -2, -3, 1, 2, 3), uint16(2))                              // negatives reverse their bits
	f.Add(word(math.Float64frombits(0xfff8000000000001), nan, 2), uint16(3)) // negative NaN payload
	f.Add(word(9, 8, 7, 6, 5, 4, 3, 2, 1, 0), uint16(10))                    // one client per tier
	f.Add(word(0.25, 0.5, 0.25, 0.5, 0.75, 0.25), uint16(4))                 // three distinct values
	f.Add([]byte{0xf8, 0xff, 0x01, 0x7f, 0x80, 0x00, 0x00, 0x80}, uint16(0)) // one raw word
	f.Fuzz(func(t *testing.T, raw []byte, m uint16) {
		// 4096 clients are enough for 12-bit ids, which push a 64-bit key
		// spread two digits out of the words.
		n := min(len(raw)/8, 1<<12)
		if n == 0 {
			return
		}
		lat := make([]float64, n)
		for i := range lat {
			lat[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		partitionMatchesReference(t, lat, 1+int(m)%n)
	})
}

// benchLatencies is the profile of an n-client derived population as the
// benchmark's fedat_pop1m_sim configures it: every client's expected
// latency over two batch steps (twenty samples in batches of ten).
func benchLatencies(b *testing.B, n int) []float64 {
	pop, err := simnet.NewPopulation(simnet.ClusterConfig{
		NumClients: n, NumUnstable: n / 10, DropHorizon: 20000,
		SecPerBatch: 1.0, UpBW: 1 << 20, DownBW: 1 << 20, ServerBW: 16 << 20,
		Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	lat := make([]float64, n)
	for i := range lat {
		lat[i] = pop.ExpectedLatency(i, 2)
	}
	return lat
}

// benchPartition partitions 1,000 and 1,000,000 profiled clients into five
// tiers, the fedat_pop1m_sim shape at both ends of the population ladder.
func benchPartition(b *testing.B, partition func([]float64, int) (*Tiers, error)) {
	for _, n := range []int{1000, 1_000_000} {
		lat := benchLatencies(b, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := partition(lat, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPartition(b *testing.B) { benchPartition(b, Partition) }

// BenchmarkPartitionReference is the same-process denominator: the
// comparison sort the radix partition replaced.
func BenchmarkPartitionReference(b *testing.B) { benchPartition(b, refPartition) }
