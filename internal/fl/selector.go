package fl

import (
	"slices"

	"repro/internal/rng"
)

// selector is the client-selection policy of a method. Every selector
// implements Init; the pacing-specific capabilities are the two optional
// interfaces below, and a pacer validates at run start that its selector
// provides the capability it needs.
type selector interface {
	// Init prepares per-run state: selectors split their RNG streams off
	// rs.root here so their randomness is independent of every other
	// policy's.
	Init(rs *runState) error
}

// roundSelector drives synchronous pacing: it picks one cohort per round
// and decides which of the round's results count.
type roundSelector interface {
	selector
	// Pick selects the next round's cohort at time now, into *cohort —
	// the pacer's buffer, which the cohort returned shares. It may advance
	// the clock past selection bookkeeping (TiFL's accuracy refresh costs
	// real communication) and reports the training tier the cohort
	// belongs to (-1 when the selector is untiered; tier-aware update
	// rules then route each update by its client's profiled tier).
	Pick(rs *runState, now float64, cohort *[]int) (sel []int, tier int, newNow float64, outcome selectOutcome, err error)
	// Harvest filters the round's results down to the updates that count,
	// writing them into *kept — the pacer's buffer, which holds them until
	// the round folds, since the results themselves are valid only during
	// deliver — and returns the round's completion time.
	// Over-selection keeps only the earliest arrivals, so the straggler
	// tail stops gating the clock. A delivered update Harvest discards
	// never reaches the fold site, so Harvest hands it back
	// (rs.comm.discard) itself.
	Harvest(rs *runState, results []TrainResult, kept *[]TrainResult) (now float64)
}

// tierSelector drives tier pacing: each tier's loop asks for a cohort
// within that tier.
type tierSelector interface {
	selector
	// PickTier samples a cohort from tier m at time now into *cohort, the
	// tier loop's buffer (nil when the tier has no available clients).
	PickTier(rs *runState, m int, now float64, cohort *[]int) []int
	// Harvest plays the same role as roundSelector.Harvest for one tier's
	// round.
	Harvest(rs *runState, results []TrainResult, kept *[]TrainResult) (now float64)
}

// selectOutcome is a roundSelector's verdict for one pacing attempt.
type selectOutcome int

const (
	// selectOK: a cohort was picked; train it.
	selectOK selectOutcome = iota
	// selectSkip: nothing selectable this attempt (e.g. the picked tier is
	// offline) but other attempts may succeed; consume an attempt and
	// retry.
	selectSkip
	// selectStop: the population is exhausted; end the run.
	selectStop
)

// selectors is the registry of selection policies.
var selectors = map[string]func() selector{
	"random":  func() selector { return &randomSelector{} },
	"oversel": func() selector { return &overselSelector{randomSelector{over: overFactor}} },
	"tifl":    func() selector { return &tiflSelector{} },
	"all":     func() selector { return allSelector{} },
}

// ---------------------------------------------------------------------------
// random: sample ClientsPerRound uniformly from the available population
// (FedAvg's selection); within a tier, sample from the tier's members with
// that tier's own stream (FedAT's per-tier rounds).

type randomSelector struct {
	all     []int // every client id, built on the first Pick: tier rounds never read it
	selRNG  *rng.RNG
	root    *rng.RNG
	tierRNG []*rng.RNG
	avail   []int   // selectAvailable's swap log
	over    float64 // over-selection factor on the cohort size (0 = none)
}

// cohortSize is how many clients one round samples.
func (s *randomSelector) cohortSize(rs *runState) int {
	if s.over == 0 {
		return rs.cfg.ClientsPerRound
	}
	return int(float64(rs.cfg.ClientsPerRound)*s.over + 0.5)
}

func (s *randomSelector) Init(rs *runState) error {
	s.root = rs.root
	s.selRNG = rs.root.SplitLabeled(1)
	return nil
}

func (s *randomSelector) Pick(rs *runState, now float64, cohort *[]int) ([]int, int, float64, selectOutcome, error) {
	if s.all == nil {
		s.all = allClientIDs(rs.fab)
	}
	sel := selectAvailable(&s.avail, cohort, s.selRNG, s.all, rs.fab, now, s.cohortSize(rs))
	if len(sel) == 0 {
		return nil, -1, now, selectStop, nil // everyone is offline; training cannot continue
	}
	return sel, -1, now, selectOK, nil
}

func (s *randomSelector) PickTier(rs *runState, m int, now float64, cohort *[]int) []int {
	return selectAvailable(&s.avail, cohort, s.tierStream(m), rs.tiers.Members[m], rs.fab, now, s.cohortSize(rs))
}

// tierStream lazily derives tier m's RNG stream, labelled by tier index —
// the label scheme FedAT has always used.
func (s *randomSelector) tierStream(m int) *rng.RNG {
	for len(s.tierRNG) <= m {
		s.tierRNG = append(s.tierRNG, s.root.SplitLabeled(uint64(len(s.tierRNG))))
	}
	return s.tierRNG[m]
}

func (s *randomSelector) Harvest(rs *runState, results []TrainResult, kept *[]TrainResult) float64 {
	survivors(kept, results)
	return completionTime(results)
}

// ---------------------------------------------------------------------------
// oversel: Bonawitz et al.'s over-selection — select 130% of the target
// cohort, count only the earliest ~77% of surviving arrivals, so stragglers
// stop gating rounds at the cost of discarded work.

const overFactor = 1.3

type overselSelector struct {
	randomSelector // samples the enlarged cohorts (over = overFactor); only the harvest differs
}

func (s *overselSelector) Harvest(rs *runState, results []TrainResult, kept *[]TrainResult) float64 {
	surv := survivors(kept, results)
	if len(surv) == 0 {
		return completionTime(results)
	}
	// Keep the earliest arrivals up to the target count; the rest are
	// received later but ignored (their bytes were already counted), so
	// what their uploads hold goes back here — the fold site only reads,
	// and releases, the kept ones.
	keep := rs.cfg.ClientsPerRound
	if keep > len(surv) {
		keep = len(surv)
	}
	sortByArrival(surv)
	for _, late := range surv[keep:] {
		rs.comm.discard(late)
	}
	*kept = surv[:keep]
	return completionTime(*kept)
}

// sortByArrival orders results by server arrival time (stable insertion
// sort: the slices are ~13 elements).
func sortByArrival(rs []TrainResult) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Arrive < rs[j-1].Arrive; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// ---------------------------------------------------------------------------
// tifl: Chai et al.'s adaptive credit-based tier selection — pick ONE tier
// per round (probability inversely proportional to its test accuracy,
// bounded by credits), sample clients within it, and periodically pay for
// an accuracy refresh with real communication.

type tiflSelector struct {
	// credits bounds how often each tier may still be selected; when every
	// tier's are spent they replenish to tiflCredits, so training continues
	// past the paper's round budget.
	credits []int
	// probs weights each tier ∝ 1 − its last measured accuracy, so
	// under-trained (typically slower) tiers catch up; 1 until the first
	// refresh.
	probs []float64
	// weights is drawTier's scratch: probs masked to the tiers with credits.
	weights []float64
	picks   int // tiers drawn so far; every tiflInterval-th triggers a refresh
	tierRNG *rng.RNG
	selRNG  *rng.RNG
	avail   []int // selectAvailable's swap log; accuracyRefresh's online list
}

func (s *tiflSelector) Init(rs *runState) error {
	tiers, err := rs.partition()
	if err != nil {
		return err
	}
	s.setTiers(tiers.M())
	s.tierRNG = rs.root.SplitLabeled(1)
	s.selRNG = rs.root.SplitLabeled(2)
	return nil
}

// setTiers starts the selection state over m tiers: full credits and equal
// weights.
func (s *tiflSelector) setTiers(m int) {
	s.credits, s.probs, s.weights = make([]int, m), make([]float64, m), make([]float64, m)
	for i := range m {
		s.credits[i], s.probs[i] = tiflCredits, 1
	}
}

// refreshDue reports whether an accuracy refresh is due: the draw count
// crossed the interval. TiFL pays for this refresh with an extra round of
// test-accuracy collection from every tier — the communication overhead
// §2.1 calls out.
func (s *tiflSelector) refreshDue() bool {
	return s.picks > 0 && s.picks%tiflInterval == 0
}

// drawTier draws the next tier to train from tierRNG, weighting each tier
// that has credits left by its probability; when all are spent the credits
// replenish first.
func (s *tiflSelector) drawTier() int {
	if !slices.ContainsFunc(s.credits, func(c int) bool { return c > 0 }) {
		for i := range s.credits {
			s.credits[i] = tiflCredits
		}
	}
	for i, p := range s.probs {
		s.weights[i] = 0
		if s.credits[i] > 0 {
			s.weights[i] = p
		}
	}
	tier := s.tierRNG.ChooseWeighted(s.weights)
	s.credits[tier]--
	s.picks++
	return tier
}

// tiflProb is a tier's selection weight at test accuracy acc: 1 − acc,
// floored so every tier stays selectable.
func tiflProb(acc float64) float64 { return max(1-acc, 0.05) }

func (s *tiflSelector) Pick(rs *runState, now float64, cohort *[]int) ([]int, int, float64, selectOutcome, error) {
	if s.refreshDue() {
		var err error
		now, err = s.accuracyRefresh(rs, rs.rule.Global(), now)
		if err != nil {
			return nil, 0, now, selectStop, err
		}
	}
	tier := s.drawTier()
	sel := selectAvailable(&s.avail, cohort, s.selRNG, rs.tiers.Members[tier], rs.fab, now, rs.cfg.ClientsPerRound)
	if len(sel) == 0 {
		return nil, 0, now, selectSkip, nil // tier fully offline; the selector will pick others
	}
	return sel, tier, now, selectOK, nil
}

func (s *tiflSelector) Harvest(rs *runState, results []TrainResult, kept *[]TrainResult) float64 {
	survivors(kept, results)
	return completionTime(results)
}

// accuracyRefresh models TiFL's adaptive-selection bookkeeping: the
// current model goes out to every available client, each evaluates locally
// and reports its test accuracy (a small control message), and each tier's
// accuracy becomes its selection weight. The fabric accounts the cost — on
// the simulator the transfers serialize on the server downlink and advance
// the clock; the live fabric tallies the bytes. Each tier's online list is
// built in the selector's scratch and is dead before the next tier's (or
// the following selectAvailable) reuses it.
func (s *tiflSelector) accuracyRefresh(rs *runState, global []float64, now float64) (float64, error) {
	const accMsgBytes = 32
	latest := now
	for m, members := range rs.tiers.Members {
		online := s.avail[:0]
		for _, id := range members {
			if rs.fab.Available(int(id), now) {
				online = append(online, int(id))
			}
		}
		s.avail = online
		done, err := rs.fab.Probe(rs.comm, online, now, global, accMsgBytes)
		if err != nil {
			return 0, err
		}
		if done > latest {
			latest = done
		}
		s.probs[m] = tiflProb(rs.fab.EvaluateSubset(global, online))
	}
	return latest, nil
}

// ---------------------------------------------------------------------------
// all: no selection at all — the wait-free client loops train the whole
// population continuously.

// allSelector is the one selector compatible with wait-free client pacing,
// which performs no cohort selection at all. The client pacer rejects any
// other selector rather than silently ignoring it.
type allSelector struct{}

func (allSelector) Init(*runState) error { return nil }

// allClientIDs lists every client id on the fabric.
func allClientIDs(fab Fabric) []int {
	all := make([]int, fab.NumClients())
	for i := range all {
		all[i] = i
	}
	return all
}
