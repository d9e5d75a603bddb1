package simnet

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/robust"
)

// Population is the lazy form of the client population: a client exists as
// (seed, id) until someone asks for it. Every per-client attribute — part,
// speed, delay stream, drop time, drift/churn schedule, attack role — is
// derived on demand from the same labeled RNG streams NewCluster draws
// eagerly, so a materialized client is bit-identical to its eager twin (the
// equivalence is pinned by TestPopulationMatchesEagerCluster).
//
// What has to be precomputed is exactly the set of draws that are
// sequential on a shared stream and therefore cannot be derived per id:
//
//   - the part-assignment permutation (root label 1),
//   - the unstable-client choice and its interleaved drop times (label 2),
//   - the churn and late-join membership choices (population label 3),
//   - the attacker set (label 4, or the part-ranked tail).
//
// These are small index tables — O(N) ids and O(dynamic fraction · N)
// map entries, a few bytes per client — while everything heavy (the delay
// stream, drift/churn tracks, the ClientRuntime itself) stays un-built
// until a dispatch touches the client. Steady-state live state is
// O(touched clients), which under cohort sampling is O(cohort · rounds),
// not O(N).
//
// Population is not safe for concurrent use: like the rest of the
// simulator it lives on the single clock goroutine.
type Population struct {
	n                      int
	ranges                 [][2]float64
	secPerBatch            float64
	dropHorizon            float64
	upBW, downBW, serverBW float64
	seed                   uint64

	behavior   BehaviorConfig // withDefaults applied when behaviorOn
	behaviorOn bool
	attackKind robust.Kind

	root *rng.RNG // never advanced; anchors the pure labeled splits

	part     []int32          // id → delay part
	dropAt   map[int]float64  // finite permanent-drop times
	churnSet map[int]struct{} // churn membership (population draw)
	joinAt   map[int]float64  // late joiners' start times
	attacked map[int]struct{} // attacker membership

	churnTracks map[int]*churnTrack    // lazily built, shared with runtimes
	runtimes    map[int]*ClientRuntime // touched-client cache
	links       *Cluster               // the server's shared links (no clients)
}

// NewPopulation validates the configuration and builds the lazy population:
// the shared-stream index tables are drawn now, everything per-client is
// deferred to Materialize. Validation and error text match NewCluster's.
func NewPopulation(cfg ClusterConfig) (*Population, error) {
	if cfg.NumClients <= 0 {
		return nil, fmt.Errorf("simnet: NumClients must be positive")
	}
	ranges := cfg.DelayRanges
	if len(ranges) == 0 {
		ranges = DefaultDelayRanges
	}
	parts := cfg.PartSizes
	if len(parts) == 0 {
		parts = evenSplit(cfg.NumClients, len(ranges))
	}
	if len(parts) != len(ranges) {
		return nil, fmt.Errorf("simnet: %d part sizes for %d delay ranges", len(parts), len(ranges))
	}
	total := 0
	for _, p := range parts {
		total += p
	}
	if total != cfg.NumClients {
		return nil, fmt.Errorf("simnet: part sizes sum to %d, want %d", total, cfg.NumClients)
	}
	if cfg.NumUnstable > cfg.NumClients {
		return nil, fmt.Errorf("simnet: more unstable clients than clients")
	}
	secPerBatch := cfg.SecPerBatch
	if secPerBatch <= 0 {
		secPerBatch = 0.05
	}
	dropHorizon := cfg.DropHorizon
	if dropHorizon <= 0 {
		dropHorizon = 1000
	}

	p := &Population{
		n:           cfg.NumClients,
		ranges:      ranges,
		secPerBatch: secPerBatch,
		dropHorizon: dropHorizon,
		upBW:        cfg.UpBW,
		downBW:      cfg.DownBW,
		serverBW:    cfg.ServerBW,
		seed:        cfg.Seed,
		root:        rng.New(cfg.Seed),
		part:        make([]int32, cfg.NumClients),
		dropAt:      map[int]float64{},
		churnTracks: map[int]*churnTrack{},
		runtimes:    map[int]*ClientRuntime{},
		links: &Cluster{
			ServerUp:   &Link{Bandwidth: cfg.ServerBW},
			ServerDown: &Link{Bandwidth: cfg.ServerBW},
		},
	}

	// Part assignment: the same permutation walk NewCluster does, stored
	// as an id-indexed table instead of N runtimes.
	order := p.root.SplitLabeled(1).Perm(p.n)
	idx := 0
	for part, size := range parts {
		for j := 0; j < size; j++ {
			p.part[order[idx]] = int32(part)
			idx++
		}
	}

	// Unstable clients: the choice and the drop times interleave on one
	// stream, so both are drawn here, in the eager order.
	ur := p.root.SplitLabeled(2)
	for _, id := range ur.Choose(p.n, cfg.NumUnstable) {
		p.dropAt[id] = ur.Uniform(0, dropHorizon)
	}

	if cfg.Behavior.Enabled() {
		b := cfg.Behavior.withDefaults()
		p.behavior = b
		p.behaviorOn = true
		// The population stream is sequential: churn membership first,
		// then late-join membership, exactly as the eager reference draws them.
		pop := p.root.SplitLabeled(behaviorPopLabel)
		if b.ChurnFrac > 0 {
			p.churnSet = map[int]struct{}{}
			for _, id := range pop.Choose(p.n, fracCount(b.ChurnFrac, p.n)) {
				p.churnSet[id] = struct{}{}
			}
		}
		if b.LateJoinFrac > 0 {
			p.joinAt = map[int]float64{}
			for _, id := range pop.Choose(p.n, fracCount(b.LateJoinFrac, p.n)) {
				cr := p.root.SplitLabeled(uint64(1000 + id))
				p.joinAt[id] = cr.SplitLabeled(clientLateJoinLabel).Uniform(0, b.LateJoinHorizon)
			}
		}
		if b.attackOn() {
			kind, err := robust.ParseKind(b.AttackKind)
			if err != nil {
				return nil, err
			}
			p.attackKind = kind
			var ids []int
			if b.AttackTail {
				ids = tailParts(p.part, fracCount(b.AttackFrac, p.n))
			} else {
				ids = AttackTargets(cfg.Seed, p.n, b.AttackFrac)
			}
			p.attacked = map[int]struct{}{}
			for _, id := range ids {
				p.attacked[id] = struct{}{}
			}
		}
	}
	return p, nil
}

// NumClients returns the population size.
func (p *Population) NumClients() int { return p.n }

// Part returns the delay part of client id without materializing it.
func (p *Population) Part(id int) int { return int(p.part[id]) }

// Speed returns the client's persistent compute-speed factor — the first
// draw of its labeled stream, derived without allocation.
func (p *Population) Speed(id int) float64 {
	cr := p.root.SplitLabeledValue(uint64(1000 + id))
	return 0.7 + 0.6*cr.Float64()
}

// SecPerBatch returns the client's per-mini-batch compute time.
func (p *Population) SecPerBatch(id int) float64 { return p.secPerBatch * p.Speed(id) }

// DropTime returns the client's permanent departure time (+Inf if stable).
func (p *Population) DropTime(id int) float64 {
	if t, ok := p.dropAt[id]; ok {
		return t
	}
	return Inf
}

// JoinTime returns when the client first comes online (0 unless late-joining).
func (p *Population) JoinTime(id int) float64 { return p.joinAt[id] }

// AttackOf returns the client's malicious role (zero value = honest).
func (p *Population) AttackOf(id int) robust.Attack {
	if _, ok := p.attacked[id]; ok {
		return robust.Attack{Kind: p.attackKind, Scale: p.behavior.AttackScale}
	}
	return robust.Attack{}
}

// churnFor returns the client's churn schedule, building and caching it on
// first use. Tracks are shared with materialized runtimes: the schedule is
// a pure function of (seed, queried horizon), so sharing cannot skew it.
func (p *Population) churnFor(id int) *churnTrack {
	if t, ok := p.churnTracks[id]; ok {
		return t
	}
	cr := p.root.SplitLabeled(uint64(1000 + id))
	t := newChurnTrack(cr.SplitLabeled(clientChurnLabel), p.behavior)
	p.churnTracks[id] = t
	return t
}

// Available reports whether client id is online at time t — the lazy twin
// of ClientRuntime.Available, answered from the index tables plus the
// client's (cached) churn schedule, without building a runtime.
func (p *Population) Available(id int, t float64) bool {
	if t >= p.DropTime(id) || t < p.JoinTime(id) {
		return false
	}
	if p.churnSet != nil {
		if _, ok := p.churnSet[id]; ok {
			return !p.churnFor(id).OfflineAt(t)
		}
	}
	return true
}

// NextOnline returns the earliest time >= t at which client id is online
// (+Inf if never again) — the lazy twin of ClientRuntime.NextOnline.
func (p *Population) NextOnline(id int, t float64) float64 {
	if j := p.JoinTime(id); t < j {
		t = j
	}
	if p.churnSet != nil {
		if _, ok := p.churnSet[id]; ok {
			t = p.churnFor(id).NextOnline(t)
		}
	}
	if t >= p.DropTime(id) {
		return Inf
	}
	return t
}

// ExpectedLatency is the profiling estimate for client id — nominal
// compute plus mean injected delay — derived without materializing it.
func (p *Population) ExpectedLatency(id int, batchSteps int) float64 {
	rg := p.ranges[p.part[id]]
	return float64(batchSteps)*p.SecPerBatch(id) + (rg[0]+rg[1])/2
}

// Materialize builds (or returns the cached) full ClientRuntime for id,
// bit-identical to the one NewCluster would have built eagerly. Touched
// runtimes are cached for the population's lifetime: the per-round delay
// stream is consumable state, so a client that trains twice must keep
// drawing from where it left off.
func (p *Population) Materialize(id int) *ClientRuntime {
	if c, ok := p.runtimes[id]; ok {
		return c
	}
	cr := p.root.SplitLabeled(uint64(1000 + id))
	speed := 0.7 + 0.6*cr.Float64() // persistent ±30% factor
	dr := cr.SplitLabeled(7)
	rg := p.ranges[p.part[id]]
	c := &ClientRuntime{
		ID:          id,
		Part:        int(p.part[id]),
		DelayLo:     rg[0],
		DelayHi:     rg[1],
		SecPerBatch: p.secPerBatch * speed,
		UpBW:        p.upBW,
		DownBW:      p.downBW,
		DropAt:      p.DropTime(id),
		JoinAt:      p.JoinTime(id),
		Attack:      p.AttackOf(id),
		delayRNG:    dr,
		delayRNG0:   *dr,
	}
	if p.behaviorOn && p.behavior.DriftMag > 0 {
		c.drift = newDriftTrack(cr.SplitLabeled(clientDriftLabel), p.behavior)
	}
	if p.churnSet != nil {
		if _, ok := p.churnSet[id]; ok {
			c.churn = p.churnFor(id)
		}
	}
	p.runtimes[id] = c
	return c
}

// Materialized reports how many runtimes have been built — the number the
// memory-ceiling assertions watch.
func (p *Population) Materialized() int { return len(p.runtimes) }

// Reset clears the population's mutable simulation state — server link
// reservations and the delay stream of every touched runtime — so a fresh
// run over the same population sees identical conditions from time zero,
// as Cluster.Reset does. Untouched clients have no consumable state yet.
func (p *Population) Reset() {
	p.links.Reset()
	for _, c := range p.runtimes {
		c.Reset()
	}
}

// Links returns the population's Cluster shell carrying only the server's
// shared links — the piece of Cluster the transfer-arrival model needs. Its
// Clients slice is empty: runtimes are resolved through Materialize.
func (p *Population) Links() *Cluster { return p.links }

// Cluster materializes the entire population — the eager construction,
// now expressed as "touch every client". NewCluster delegates here.
func (p *Population) Cluster() *Cluster {
	cl := &Cluster{
		Clients:    make([]*ClientRuntime, p.n),
		ServerUp:   &Link{Bandwidth: p.serverBW},
		ServerDown: &Link{Bandwidth: p.serverBW},
	}
	for id := range cl.Clients {
		cl.Clients[id] = p.Materialize(id)
	}
	return cl
}

// tailParts picks the k slowest clients from the part table — largest part
// wins, ties to the lower id — the same ranking the eager reference applies
// to materialized runtimes.
func tailParts(part []int32, k int) []int {
	ids := make([]int, len(part))
	for i := range ids {
		ids[i] = i
	}
	// Stable two-key sort without materializing runtimes: part descending
	// with index ascending as the tie-break, which is exactly what the
	// eager reference's stable sort over runtimes produces.
	sort.SliceStable(ids, func(a, b int) bool {
		pa, pb := part[ids[a]], part[ids[b]]
		if pa != pb {
			return pa > pb
		}
		return ids[a] < ids[b]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}
