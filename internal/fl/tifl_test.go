package fl

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// newTiFL is a tiflSelector over m tiers drawing from seed, with no run
// behind it: the tests below drive drawTier and read the fields directly.
func newTiFL(m int, seed uint64) *tiflSelector {
	s := &tiflSelector{tierRNG: rng.New(seed)}
	s.setTiers(m)
	return s
}

// setAccuracies is what accuracyRefresh writes: each tier's weight at its
// measured accuracy.
func (s *tiflSelector) setAccuracies(accs ...float64) {
	for m, a := range accs {
		s.probs[m] = tiflProb(a)
	}
}

func TestTiFLSelectorFavorsLowAccuracy(t *testing.T) {
	s := newTiFL(3, 1)
	s.setAccuracies(0.9, 0.5, 0.1)
	s.credits = []int{1000000, 1000000, 1000000} // never run out
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[s.drawTier()]++
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
	s := newTiFL(2, 2)
	if !slices.Equal(s.credits, []int{tiflCredits, tiflCredits}) {
		t.Fatalf("initial credits %v, want %d per tier", s.credits, tiflCredits)
	}
	s.credits = []int{2, 2}
	for i := 0; i < 4; i++ {
		s.drawTier()
	}
	if s.credits[0]+s.credits[1] != 0 {
		t.Fatalf("credits not exhausted: %v", s.credits)
	}
	// The next draw must replenish rather than fail.
	if tier := s.drawTier(); tier < 0 || tier > 1 {
		t.Fatalf("invalid tier %d", tier)
	}
	if s.credits[0]+s.credits[1] != 2*tiflCredits-1 {
		t.Fatalf("credits after replenish: %v", s.credits)
	}
}

func TestTiFLSkipsSpentTiers(t *testing.T) {
	s := newTiFL(2, 3)
	s.setAccuracies(0.0, 0.99)
	s.credits = []int{1, 1}
	first := s.drawTier()
	second := s.drawTier()
	if first == second {
		t.Fatalf("second selection reused spent tier %d", first)
	}
}

func TestNeedsAccuracyRefresh(t *testing.T) {
	s := newTiFL(2, 4)
	if s.refreshDue() {
		t.Fatal("refresh requested before any selection")
	}
	for i := 1; i < tiflInterval; i++ {
		s.drawTier()
		if s.refreshDue() {
			t.Fatalf("refresh requested after %d draws, interval %d", i, tiflInterval)
		}
	}
	s.drawTier()
	if !s.refreshDue() {
		t.Fatal("refresh not requested at interval")
	}
}

func TestSelectorDeterminism(t *testing.T) {
	mk := func() []int {
		s := newTiFL(4, 9)
		s.setAccuracies(0.2, 0.4, 0.6, 0.8)
		out := make([]int, 50)
		for i := range out {
			out[i] = s.drawTier()
		}
		return out
	}
	if a, b := mk(), mk(); !slices.Equal(a, b) {
		t.Fatal("selector not deterministic")
	}
}

// TestTiFLPickAllocFree pins TiFL's selection at no allocation across whole
// refresh intervals: the tier draw masks credits in the selector's own
// scratch, the accuracy refresh writes each tier's weight in place, and
// each cohort is picked into the caller's buffer.
func TestTiFLPickAllocFree(t *testing.T) {
	skipUnderRace(t)
	cfg := baseCfg().withDefaults()
	env := testEnv(t, 0, cfg)
	rs := &runState{fab: env.Fabric(), cfg: cfg, root: rng.New(5), comm: NewComm(cfg.Codec, env.shapes)}
	rs.rule = updateRules["avg"]()
	if err := rs.rule.Init(rs); err != nil {
		t.Fatal(err)
	}
	s := &tiflSelector{}
	if err := s.Init(rs); err != nil {
		t.Fatal(err)
	}
	var cohorts int // of the last interval
	var cohort []int
	interval := func() {
		cohorts = 0
		for range tiflInterval {
			_, _, _, out, err := s.Pick(rs, 0, &cohort)
			if err != nil {
				t.Fatal(err)
			}
			if out == selectOK {
				cohorts++
			}
		}
	}
	interval() // warm up: the first refresh grows the evaluator's scratch
	interval()
	if allocs := testing.AllocsPerRun(1, interval); allocs != 0 || cohorts == 0 {
		t.Errorf("%d picks (%d cohorts) allocate %.0f times, want 0", tiflInterval, cohorts, allocs)
	}
}
