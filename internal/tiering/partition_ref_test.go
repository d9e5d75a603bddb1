package tiering

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
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
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	// Latency, then id: a total order, so the unstable sort lands where a
	// stable sort by latency over ascending ids does.
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(latencies[a], latencies[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	t := &Tiers{Members: make([][]int32, m)}
	base, rem := n/m, n%m
	pos := 0
	for tier := range t.Members {
		size := base
		if tier < rem {
			size++
		}
		t.Members[tier] = make([]int32, size)
		copy(t.Members[tier], order[pos:pos+size])
		pos += size
	}
	return t, nil
}

// withWorkers runs f at GOMAXPROCS procs with PartitionFunc's scale
// shrunk: its key range sampled from about 8 clients, worker blocks of 64
// ids and pair buffers of 64 pairs, so inputs of any size clamp keys
// outside the sampled range, split across workers and split buckets.
func withWorkers(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer func(bits, block, pairs int) {
		sampleBits, minBlock, pairMax = bits, block, pairs
	}(sampleBits, minBlock, pairMax)
	sampleBits, minBlock, pairMax = 3, 64, 64
	f()
}

// partitionMatchesReference runs Partition, and PartitionFunc at GOMAXPROCS
// 1 and 4, against the reference over one input.
func partitionMatchesReference(t testing.TB, lat []float64, m int) {
	t.Helper()
	want, err := refPartition(lat, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Partition(lat, m)
	if err != nil {
		t.Fatal(err)
	}
	tiersMatchReference(t, "Partition", lat, got, want)
	membersMatchAssignment(t, got)
	for _, procs := range []int{1, 4} {
		withWorkers(procs, func() {
			got, err = PartitionFunc(len(lat), m, func(i int) float64 { return lat[i] })
		})
		if err != nil {
			t.Fatal(err)
		}
		tiersMatchReference(t, fmt.Sprintf("PartitionFunc at GOMAXPROCS %d", procs), lat, got, want)
		membersMatchAssignment(t, got)
	}
}

// tiersMatchReference requires the same members in the same order in every
// tier, the same tier for every id, and tier views clipped to their length.
func tiersMatchReference(t testing.TB, name string, lat []float64, got, want *Tiers) {
	t.Helper()
	m := want.M()
	if got.M() != m {
		t.Fatalf("%s, n=%d m=%d: %d tiers", name, len(lat), m, got.M())
	}
	for tier, w := range want.Members {
		g := got.Members[tier]
		if len(g) != len(w) || cap(g) != len(g) {
			t.Fatalf("%s, n=%d m=%d tier %d: len %d cap %d, reference len %d", name, len(lat), m, tier, len(g), cap(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s, n=%d m=%d tier %d position %d: client %d (latency %v), reference client %d (latency %v)",
					name, len(lat), m, tier, i, g[i], lat[g[i]], w[i], lat[w[i]])
			}
		}
	}
	gotAssign := got.Assignment()
	for id, tier := range want.Assignment() {
		if gotAssign[id] != tier {
			t.Fatalf("%s, n=%d m=%d: client %d in tier %d, reference tier %d", name, len(lat), m, id, gotAssign[id], tier)
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
// comparison sort across sizes on both sides of a byte (256), past an
// 11-bit (2049) and a 14-bit (16385) count and up to 10⁶, tier counts
// from one to one tier per client, and every latency family.
func TestPartitionMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 17, 255, 256, 257, 2049, 16385, 100_000, 1_000_000} {
		if n > 16385 && testing.Short() {
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

// TestPartitionFuncAllocation holds PartitionFunc at 10⁶ clients of every
// latency family, at the default worker blocks and GOMAXPROCS 1 and 4, to
// N·16 B allocated — what profiling into a float64 table and sorting two id
// buffers used to take. The id array is 4 B of it; the rest bounds the
// histograms, pair buffers and the re-split scratch of buckets too large
// for the pair buffers (every bucket of the all-equal and 3-distinct
// families).
func TestPartitionFuncAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁶-client partitions; skipped in -short")
	}
	const n = 1_000_000
	lat := make([]float64, n)
	for fi, fam := range latencyFamilies {
		g := rng.New(uint64(n*len(latencyFamilies) + fi))
		for i := range lat {
			lat[i] = fam.gen(g, i, n)
		}
		for _, procs := range []int{1, 4} {
			var before, after runtime.MemStats
			prev := runtime.GOMAXPROCS(procs)
			runtime.ReadMemStats(&before)
			_, err := PartitionFunc(n, 5, func(i int) float64 { return lat[i] })
			runtime.ReadMemStats(&after)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%-10s GOMAXPROCS %d: %5.2f B/client", fam.name, procs, float64(alloc)/n)
			if alloc > n*16 {
				t.Errorf("%s at GOMAXPROCS %d: PartitionFunc allocated %.2f B/client; want ≤ 16", fam.name, procs, float64(alloc)/n)
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
		// 4096 clients are enough for buckets that outgrow the insertion
		// sort at every digit of a 64-bit key spread.
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
