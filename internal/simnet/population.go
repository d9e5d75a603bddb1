package simnet

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/rng"
	"repro/internal/robust"
)

// Population is the simulated client population plus the server's two
// shared links. A client exists as (seed, id) until someone asks for it.
// Every per-client attribute — part, speed, delay stream, drop time,
// drift/churn schedule, attack role — is derived on demand from labeled RNG
// streams, so a materialized client is bit-identical to the one an eager
// construction draws in order (the equivalence is pinned by
// TestPopulationMatchesEagerCluster against such a construction).
//
// What has to be precomputed is exactly the set of draws that are
// sequential on a shared stream and therefore cannot be derived per id:
//
//   - the part-assignment permutation (root label 1),
//   - the unstable-client choice and its interleaved drop times (label 2),
//   - the churn membership choice (population label 3),
//   - the attacker set (label 4, or the part-ranked tail).
//
// These are small index tables — one byte of part per client, and 12 bytes
// (an int32 id and a float64 time) per unstable client, sorted by id —
// while everything heavy (the delay stream, drift/churn tracks, the
// ClientRuntime itself) stays un-built until a dispatch touches the client.
// A touched runtime is a value in a fixed-size chunk that never moves, so
// its pointer stays valid for the population's lifetime and a first touch
// costs no allocation of its own (one chunk serves runtimeChunk of them).
// The runtime keeps only what cannot be recomputed from the tables above;
// link speeds, the attack role and the delay stream's starting state are
// derived again when asked for. The index from id to chunk slot holds no
// pointers, so the collector never scans it. Ids are stored as int32, so a
// population holds at most math.MaxInt32 clients. Steady-state live state
// is O(touched clients), which under cohort sampling is O(cohort · rounds),
// not O(N).
//
// Population is not safe for concurrent use: like the rest of the
// simulator it lives on the single clock goroutine.
type Population struct {
	n            int
	secPerBatch  float64
	upBW, downBW float64

	behavior   BehaviorConfig // withDefaults applied when behaviorOn
	behaviorOn bool
	attackKind robust.Kind

	root *rng.RNG // never advanced; anchors the pure labeled splits

	part     []uint8          // id → delay part
	drops    dropTable        // unstable clients by ascending id, with their drop times
	churnSet map[int]struct{} // churn membership (population draw)
	attacked map[int]struct{} // attacker membership

	churnTracks map[int]*churnTrack            // lazily built, shared with runtimes
	touched     map[int32]int32                // touched id → its runtime's slot in chunks
	chunks      []*[runtimeChunk]ClientRuntime // runtime storage; slot k is chunks[k/runtimeChunk][k%runtimeChunk]

	serverUp   Link // client→server direction
	serverDown Link // server→client direction
	// floor is the latest dispatch time a download started at. Dispatch
	// times never decrease, so no later transfer on either link starts
	// before it, and both links forget the reservations that end before it.
	floor float64
}

// runtimeChunk is how many runtimes one allocation of storage holds: 4 KiB
// of 64-byte runtimes on a 64-bit platform.
const runtimeChunk = 64

// NewPopulation validates the configuration and builds the lazy population:
// the shared-stream index tables are drawn now, everything per-client is
// deferred to Materialize.
func NewPopulation(cfg ClusterConfig) (*Population, error) {
	if cfg.NumClients <= 0 {
		return nil, fmt.Errorf("simnet: NumClients must be positive")
	}
	if cfg.NumClients > math.MaxInt32 {
		return nil, fmt.Errorf("simnet: %d clients do not fit the population's int32 ids", cfg.NumClients)
	}
	parts := cfg.PartSizes
	if len(parts) == 0 {
		parts = evenSplit(cfg.NumClients, len(delayRanges))
	}
	if len(parts) != len(delayRanges) {
		return nil, fmt.Errorf("simnet: %d part sizes for %d delay ranges", len(parts), len(delayRanges))
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
		secPerBatch: secPerBatch,
		upBW:        cfg.UpBW,
		downBW:      cfg.DownBW,
		root:        rng.New(cfg.Seed),
		part:        make([]uint8, cfg.NumClients),
		churnTracks: map[int]*churnTrack{},
		touched:     map[int32]int32{},
		serverUp:    Link{Bandwidth: cfg.ServerBW},
		serverDown:  Link{Bandwidth: cfg.ServerBW},
	}

	// Part assignment: one permutation walk, stored as an id-indexed table
	// instead of N runtimes.
	order := p.root.SplitLabeled(1).Perm32(p.n)
	idx := 0
	for part, size := range parts {
		for j := 0; j < size; j++ {
			p.part[order[idx]] = uint8(part)
			idx++
		}
	}

	// Unstable clients: the choice and the drop times interleave on one
	// stream, so both are drawn here, in the eager order, then sorted by id.
	ur := p.root.SplitLabeled(2)
	unstable := ur.Choose(p.n, cfg.NumUnstable)
	p.drops = dropTable{ids: make([]int32, len(unstable)), times: make([]float64, len(unstable))}
	for k, id := range unstable {
		p.drops.ids[k], p.drops.times[k] = int32(id), ur.Uniform(0, dropHorizon)
	}
	sort.Sort(p.drops)

	if cfg.Behavior.enabled() {
		b := cfg.Behavior.withDefaults()
		p.behavior = b
		p.behaviorOn = true
		if b.ChurnFrac > 0 {
			p.churnSet = map[int]struct{}{}
			for _, id := range p.root.SplitLabeled(behaviorPopLabel).Choose(p.n, fracCount(b.ChurnFrac, p.n)) {
				p.churnSet[id] = struct{}{}
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

// speed returns the client's persistent compute-speed factor — the first
// draw of its labeled stream, derived without allocation.
func (p *Population) speed(id int) float64 {
	cr := p.root.SplitLabeledValue(uint64(1000 + id))
	return 0.7 + 0.6*cr.Float64()
}

// secPerBatchOf returns the client's per-mini-batch compute time.
func (p *Population) secPerBatchOf(id int) float64 { return p.secPerBatch * p.speed(id) }

// dropTime returns the client's permanent departure time (+Inf if stable).
func (p *Population) dropTime(id int) float64 {
	if k, ok := slices.BinarySearch(p.drops.ids, int32(id)); ok {
		return p.drops.times[k]
	}
	return inf
}

// dropTable holds the unstable clients' ids and drop times, index for index;
// it sorts the two together by id.
type dropTable struct {
	ids   []int32
	times []float64
}

func (d dropTable) Len() int           { return len(d.ids) }
func (d dropTable) Less(a, b int) bool { return d.ids[a] < d.ids[b] }
func (d dropTable) Swap(a, b int) {
	d.ids[a], d.ids[b] = d.ids[b], d.ids[a]
	d.times[a], d.times[b] = d.times[b], d.times[a]
}

// Attack returns the client's malicious role (zero value = honest). The
// federation layer reads it when it trains the client; the clock model never
// does, since attackers are indistinguishable from honest clients in time.
// It reads only tables fixed at construction, so concurrent calls are safe.
func (p *Population) Attack(id int) robust.Attack {
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

// Available reports whether client id is online at time t — the twin of
// ClientRuntime.available, answered from the index tables plus the
// client's (cached) churn schedule, without building a runtime.
func (p *Population) Available(id int, t float64) bool {
	if t >= p.dropTime(id) {
		return false
	}
	if p.churnSet != nil {
		if _, ok := p.churnSet[id]; ok {
			return !p.churnFor(id).offlineAt(t)
		}
	}
	return true
}

// NextOnline returns the earliest time >= t at which client id is online
// (+Inf if never again). For a static population this is t while the
// client lives and +Inf after its permanent drop; churn windows are the
// only source of finite waits.
func (p *Population) NextOnline(id int, t float64) float64 {
	if p.churnSet != nil {
		if _, ok := p.churnSet[id]; ok {
			t = p.churnFor(id).nextOnline(t)
		}
	}
	if t >= p.dropTime(id) {
		return inf
	}
	return t
}

// ExpectedLatency is the profiling estimate the tiering module uses for
// client id — compute for a nominal round of batchSteps plus the mean
// injected delay — derived without materializing it.
func (p *Population) ExpectedLatency(id int, batchSteps int) float64 {
	rg := delayRanges[p.part[id]]
	return float64(batchSteps)*p.secPerBatchOf(id) + (rg[0]+rg[1])/2
}

// delayStream returns the client's per-round delay stream at its start.
func (p *Population) delayStream(id int) rng.RNG {
	cr := p.root.SplitLabeledValue(uint64(1000 + id))
	return cr.SplitLabeledValue(7)
}

// Materialize builds (or returns the cached) ClientRuntime for id.
// Touched runtimes are cached for the population's lifetime: the per-round
// delay stream is consumable state, so a client that trains twice must keep
// drawing from where it left off. The runtime is built in place in the next
// free slot of the newest storage chunk; chunks never move, so the pointer
// returned stays valid for the population's lifetime.
func (p *Population) Materialize(id int) *ClientRuntime {
	if k, ok := p.touched[int32(id)]; ok {
		return p.slot(k)
	}
	k := int32(len(p.touched))
	if k%runtimeChunk == 0 {
		p.chunks = append(p.chunks, new([runtimeChunk]ClientRuntime))
	}
	c := p.slot(k)
	rg := delayRanges[p.part[id]]
	*c = ClientRuntime{
		DelayLo:     rg[0],
		DelayHi:     rg[1],
		SecPerBatch: p.secPerBatchOf(id),
		DropAt:      p.dropTime(id),
		delayRNG:    p.delayStream(id),
	}
	if p.behaviorOn && p.behavior.DriftMag > 0 {
		cr := p.root.SplitLabeledValue(uint64(1000 + id))
		c.drift = newDriftTrack(cr.SplitLabeled(clientDriftLabel), p.behavior)
	}
	if p.churnSet != nil {
		if _, ok := p.churnSet[id]; ok {
			c.churn = p.churnFor(id)
		}
	}
	p.touched[int32(id)] = k
	return c
}

// slot returns the runtime stored in slot k.
func (p *Population) slot(k int32) *ClientRuntime {
	return &p.chunks[k/runtimeChunk][k%runtimeChunk]
}

// Materialized reports how many runtimes have been built — the number the
// memory-ceiling assertions watch.
func (p *Population) Materialized() int { return len(p.touched) }

// Reset clears the population's mutable simulation state — server link
// reservations, the dispatch floor and the delay stream of every touched
// runtime — so a fresh run over the same population sees identical
// conditions from time zero. Each touched delay stream is derived again from
// (seed, id), exactly as Materialize first derived it. Untouched clients have
// no consumable state yet. Drift and churn schedules need no reset: both are
// pure functions of (seed, t) regardless of query order.
func (p *Population) Reset() {
	p.serverUp.Reset()
	p.serverDown.Reset()
	p.floor = 0
	for id, k := range p.touched {
		p.slot(k).delayRNG = p.delayStream(int(id))
	}
}

// UploadArrival models a client→server transfer started at now: the client
// pushes at the population's client link speed while the server link
// serializes concurrent transfers; the payload lands when both are done.
func (p *Population) UploadArrival(now float64, bytes int) float64 {
	return arrival(now, p.upBW, &p.serverUp, bytes)
}

// DownloadArrival models a server→client transfer started at now. A
// download starts every dispatch and every probe, at the fabric's clock, so
// now is also the floor below which no later transfer on either link
// starts: both links forget what ends before it (Link.forget), which keeps
// each one's reservations to the transfers still in flight instead of every
// transfer since the run began.
func (p *Population) DownloadArrival(now float64, bytes int) float64 {
	if now > p.floor {
		p.floor = now
		p.serverUp.forget(now)
		p.serverDown.forget(now)
	}
	return arrival(now, p.downBW, &p.serverDown, bytes)
}

// arrival is when a transfer of bytes started at now has crossed both the
// client's link (bw bytes/second, <= 0 = infinite) and the server's.
func arrival(now, bw float64, server *Link, bytes int) float64 {
	clientDone := now
	if bw > 0 {
		clientDone = now + float64(bytes)/bw
	}
	serverDone := server.Transfer(now, bytes)
	if clientDone > serverDone {
		return clientDone
	}
	return serverDone
}

// tailParts picks the k slowest clients from the part table — largest part
// wins, ties to the lower id — the same ranking the eager reference applies
// to materialized runtimes.
func tailParts(part []uint8, k int) []int {
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
