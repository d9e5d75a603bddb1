package fl

import (
	"math"
	"testing"

	"repro/internal/core"
)

// fuzzVec derives a deterministic pseudo-random vector from seed (same LCG
// as the tensor kernel fuzzers).
func fuzzVec(seed uint64, n int) []float64 {
	v := make([]float64, n)
	s := seed
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = float64(int64(s>>11))/float64(1<<52) - 0.5
	}
	return v
}

// naiveAgg mirrors core.Aggregator with freshly-written textbook loops: no
// Axpy, no WeightedSumInto, no reused scratch — but the exact same FP
// summation order, which is the contract the in-place fold path must keep.
type naiveAgg struct {
	weighted bool
	tierW    [][]float64
	counts   []int
	total    int
	global   []float64
}

func newNaiveAgg(m int, w0 []float64, weighted bool) *naiveAgg {
	a := &naiveAgg{weighted: weighted, tierW: make([][]float64, m), counts: make([]int, m), global: append([]float64(nil), w0...)}
	for i := range a.tierW {
		a.tierW[i] = append([]float64(nil), w0...)
	}
	return a
}

func (a *naiveAgg) fold(m int, updates []core.ClientUpdate) []float64 {
	nc := 0
	for _, u := range updates {
		nc += u.N
	}
	tier := a.tierW[m]
	for i := range tier {
		tier[i] = 0
	}
	for _, u := range updates {
		c := float64(u.N) / float64(nc)
		for i := range tier {
			tier[i] += c * u.Weights[i]
		}
	}
	a.counts[m]++
	a.total++
	mm := len(a.tierW)
	w := make([]float64, mm)
	if a.weighted {
		den := float64(a.total + mm)
		for t := 0; t < mm; t++ {
			w[t] = (float64(a.counts[mm-1-t]) + 1) / den
		}
	} else {
		for t := range w {
			w[t] = 1 / float64(mm)
		}
	}
	for i := range a.global {
		s := 0.0
		for t := 0; t < mm; t++ {
			s += w[t] * a.tierW[t][i]
		}
		a.global[i] = s
	}
	return a.global
}

// FuzzFoldInPlace drives every updateRule's in-place fold (pooled buffers,
// reused tier models, reused Eq. 5 scratch) against a naive
// fresh-allocation reference with identical summation order, across
// fuzzer-chosen dimensions, tier counts, cohort sizes, staleness anchors
// and aliasing (an update whose weight slice IS the rule's live global
// buffer). Results must agree bit for bit, fold after fold.
func FuzzFoldInPlace(f *testing.F) {
	f.Add(uint64(1), 8, uint8(0), 1, 2, false)
	f.Add(uint64(2), 33, uint8(1), 3, 3, true)
	f.Add(uint64(3), 5, uint8(2), 2, 2, false)
	f.Add(uint64(4), 17, uint8(3), 4, 3, true)
	f.Add(uint64(5), 12, uint8(4), 3, 2, false)
	f.Fuzz(func(t *testing.T, seed uint64, dim int, which uint8, m, folds int, alias bool) {
		if dim < 1 || dim > 256 || m < 1 || m > 5 || folds < 1 || folds > 4 {
			t.Skip()
		}
		w0 := fuzzVec(seed, dim)
		numClients := 2 * m
		assignment := make([]int32, numClients)
		for c := range assignment {
			assignment[c] = int32(c % m)
		}

		mkUpdates := func(fold, count int, implGlobal, naiveGlobal []float64) (impl, naive []core.ClientUpdate) {
			for k := 0; k < count; k++ {
				us := seed ^ uint64(fold*31+k+1)*0x9e3779b97f4a7c15
				wv := fuzzVec(us, dim)
				n := int(us%7) + 1
				client := int(us % uint64(numClients))
				iu := core.ClientUpdate{Weights: wv, N: n, Client: client}
				nu := core.ClientUpdate{Weights: append([]float64(nil), wv...), N: n, Client: client}
				if alias && k == 0 && fold > 0 {
					// The aliasing case: this update's weights ARE the live
					// global buffer the rule is about to rewrite. The naive
					// side aliases its own global the same way.
					iu.Weights = implGlobal
					nu.Weights = naiveGlobal
				}
				impl = append(impl, iu)
				naive = append(naive, nu)
			}
			return impl, naive
		}

		check := func(fold int, got, want []float64) {
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("rule %d fold %d: global[%d] = %x, naive = %x",
						which, fold, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}

		switch which % 5 {
		case 0: // avg — FedAvg's single-tier n_k-weighted mean
			agg, err := core.NewAggregator(1, w0, true)
			if err != nil {
				t.Fatal(err)
			}
			rule := &avgRule{agg: agg}
			ref := newNaiveAgg(1, w0, true)
			for fd := 0; fd < folds; fd++ {
				iu, nu := mkUpdates(fd, int(seed%3)+1, rule.Global(), ref.global)
				got, err := rule.Fold(fold{tier: 0, updates: iu})
				if err != nil {
					t.Fatal(err)
				}
				check(fd, got, ref.fold(0, nu))
			}

		case 1, 2: // eq5 / uniform — FedAT's cross-tier fold, both weightings
			weighted := which%5 == 1
			agg, err := core.NewAggregator(m, w0, weighted)
			if err != nil {
				t.Fatal(err)
			}
			rule := &eq5Rule{agg: agg, assignment: assignment, forceUniform: !weighted}
			ref := newNaiveAgg(m, w0, weighted)
			for fd := 0; fd < folds; fd++ {
				iu, nu := mkUpdates(fd, int(seed%3)+1, rule.Global(), ref.global)
				tier := fd % m
				if fd%2 == 1 {
					// Untiered fold (tier -1): the rule routes each update
					// by its client's assignment, folding tier groups in
					// first-seen order. Mirror that routing naively.
					got, err := rule.Fold(fold{tier: -1, updates: iu})
					if err != nil {
						t.Fatal(err)
					}
					var want []float64
					var order []int
					byTier := map[int][]core.ClientUpdate{}
					for _, u := range nu {
						tt := int(assignment[u.Client])
						if _, ok := byTier[tt]; !ok {
							order = append(order, tt)
						}
						byTier[tt] = append(byTier[tt], u)
					}
					for _, tt := range order {
						want = ref.fold(tt, byTier[tt])
					}
					check(fd, got, want)
					continue
				}
				got, err := rule.Fold(fold{tier: tier, updates: iu})
				if err != nil {
					t.Fatal(err)
				}
				check(fd, got, ref.fold(tier, nu))
			}

		case 3: // staleness — FedAsync's α_t-blended in-place Lerp
			rule := &stalenessRule{asyncState: asyncAt(append([]float64(nil), w0...), 0, 0.6, StalenessConfig{Func: StaleFuncPoly, Alpha: 0.5})}
			refG := append([]float64(nil), w0...)
			version := 0
			for fd := 0; fd < folds; fd++ {
				iu, nu := mkUpdates(fd, int(seed%3)+1, rule.global, refG)
				start := fd / 2 // a stale anchor: version - start >= 0
				for i := range iu {
					iu[i].StartRound = start
				}
				got, err := rule.Fold(fold{tier: -1, updates: iu})
				if err != nil {
					t.Fatal(err)
				}
				for _, u := range nu {
					staleness := float64(version - start)
					alpha := 0.6 * math.Pow(staleness+1, -0.5)
					u1 := 1 - alpha
					for i := range refG {
						refG[i] = u1*refG[i] + alpha*u.Weights[i]
					}
				}
				version++
				check(fd, got, refG)
			}

		case 4: // asofed — per-client copies + running n_k-weighted sum
			rule := &asoRule{copies: make([][]float64, numClients), copySum: make([]float64, dim), global: make([]float64, dim)}
			refCopies := make([][]float64, numClients)
			refSum := make([]float64, dim)
			refG := make([]float64, dim)
			totalN := 0
			for c := 0; c < numClients; c++ {
				rule.copies[c] = append([]float64(nil), w0...)
				refCopies[c] = append([]float64(nil), w0...)
				n := c + 1
				totalN += n
				for i := range refSum {
					refSum[i] += float64(n) * w0[i]
					rule.copySum[i] += float64(n) * w0[i]
				}
			}
			rule.totalN = totalN
			for i := range refG {
				refG[i] = refSum[i] / float64(totalN)
				rule.global[i] = refG[i]
			}
			for fd := 0; fd < folds; fd++ {
				iu, nu := mkUpdates(fd, int(seed%3)+1, rule.global, refG)
				got, err := rule.Fold(fold{tier: -1, updates: iu})
				if err != nil {
					t.Fatal(err)
				}
				for _, u := range nu {
					n := float64(u.N)
					old := refCopies[u.Client]
					for i := range refSum {
						refSum[i] += n * (u.Weights[i] - old[i])
					}
					copy(old, u.Weights)
				}
				for i := range refG {
					refG[i] = refSum[i] / float64(totalN)
				}
				check(fd, got, refG)
			}
		}
	})
}
