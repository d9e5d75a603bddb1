package fl

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/tensor"
	"repro/internal/tiering"
)

// fold is one batch of client updates arriving at the server: the tier they
// trained in, and the updates, each carrying its own staleness anchor
// (core.ClientUpdate.StartRound), read through in.
type fold struct {
	tier int
	in   *inbox
}

// updates is the batch as whole vectors (inbox.vectors).
func (f fold) updates() []core.ClientUpdate { return f.in.vectors() }

// startRound returns the fold's batch-level staleness anchor: the oldest
// member's StartRound. This is exactly the pre-redesign batch field, which
// stamped a whole fold at its most stale member — the legacy staleness
// rule keeps that semantics through this accessor so its pinned runs stay
// byte-identical, while the per-update rules (fedasync, asyncsgd) read
// each update's own anchor instead.
func (f fold) startRound() int {
	ups := f.in.ups
	if len(ups) == 0 {
		return 0
	}
	start := ups[0].StartRound
	for _, u := range ups[1:] {
		if u.StartRound < start {
			start = u.StartRound
		}
	}
	return start
}

// inbox is the batch of delivered updates the next fold consumes, each
// held in the form it travelled in until that fold: a simulated polyline
// upload in its Comm's fixed-point slot (held[i].slot > 0, ups[i].Weights
// nil), any other in the pooled buffer ups[i].Weights. A rule reads the
// batch one of two ways. As whole vectors (vectors), which rebuilds each
// slot into a pooled buffer then, at fold time. Or a tile of coordinates
// at a time (robust.Rows: the coordinate median and trimmed mean), which
// rebuilds a slot's tile straight into the fold's scratch rows, so the
// batch never becomes float64 vectors at all. The engine's fold gives back
// whatever the batch holds afterwards (release). A run has one inbox: the
// synchronous and tier loops fill it from a harvested cohort just before
// their fold, the wait-free loops arrival by arrival until K have landed.
type inbox struct {
	comm *Comm
	ups  []core.ClientUpdate
	held []heldUpdate
}

// heldUpdate is where an inbox update waits — its slot id, 0 once the
// update is a pooled vector — and, for a tile read, the update's cursor
// into its slot's list of values outside int16 (Polyline.ReconstructRange).
type heldUpdate struct {
	slot, at int32
}

// reserve makes room for k more updates, with one allocation a slice when
// the inbox has none.
func (b *inbox) reserve(k int) {
	b.ups = slices.Grow(b.ups, k)
	b.held = slices.Grow(b.held, k)
}

// add lands one delivered update in the batch, anchored at startRound.
func (b *inbox) add(r TrainResult, startRound int) {
	b.ups = append(b.ups, core.ClientUpdate{Weights: r.Weights, N: r.N, Client: r.Client, StartRound: startRound})
	b.held = append(b.held, heldUpdate{slot: r.slot})
}

// take lands a harvested cohort, which shares the anchor startRound, and
// returns the inbox.
func (b *inbox) take(results []TrainResult, startRound int) *inbox {
	for _, r := range results {
		b.add(r, startRound)
	}
	return b
}

// vectors reads every update of the batch as a whole vector: a slot is
// rebuilt into a pooled buffer (Comm.receive) and freed. It returns the
// updates, which the fold reads and retains none of.
func (b *inbox) vectors() []core.ClientUpdate {
	for i := range b.held {
		if h := &b.held[i]; h.slot != 0 {
			b.ups[i].Weights = b.comm.receive(h.slot)
			h.slot = 0
		}
	}
	return b.ups
}

// release gives back what every update holds — its slot, or its pooled
// buffer — and empties the batch.
func (b *inbox) release() {
	for i, u := range b.ups {
		b.comm.discard(u.Weights, b.held[i].slot)
	}
	clear(b.ups)
	b.ups, b.held = b.ups[:0], b.held[:0]
}

// Len implements robust.Rows: the number of updates in the batch.
func (b *inbox) Len() int { return len(b.ups) }

// RowLen implements robust.Rows.
func (b *inbox) RowLen(i int) int {
	if s := b.held[i].slot; s != 0 {
		return b.comm.slots[s-1].Len()
	}
	return len(b.ups[i].Weights)
}

// Load implements robust.Rows. A slot's tile is rebuilt in place, its
// cursor carried from tile to tile; its values are float64(q)/s, never NaN
// and never -0, so the reconstruction already obeys the gather law. A
// pooled vector's tile is copied under it.
func (b *inbox) Load(dst []float64, i, j0 int) {
	h := &b.held[i]
	if h.slot == 0 {
		robust.Gather(dst, b.ups[i].Weights[j0:j0+len(dst)])
		return
	}
	if j0 == 0 {
		h.at = 0
	}
	h.at = int32(b.comm.fixed.ReconstructRange(dst, &b.comm.slots[h.slot-1], j0, int(h.at)))
}

// updateRule is the aggregation policy of a method: it owns the server-side
// model state, hands out download snapshots, and folds arrived updates into
// a new global model.
type updateRule interface {
	// Init allocates the per-run server state.
	Init(rs *runState) error
	// Global returns the current global model for download. The slice may
	// alias internal state: callers must encode or copy it immediately and
	// never mutate it.
	Global() []float64
	// Rounds returns t, the number of global updates folded so far.
	Rounds() int
	// Fold incorporates one batch of client updates and returns the fresh
	// global model (aliasing rules as for Global).
	Fold(f fold) ([]float64, error)
}

// tierAware marks update rules that track the tier partition and must be
// told when the engine re-tiers at runtime (RunConfig.RetierEvery). The
// Eq. 5 fold routes untiered arrivals by the client's current tier, so a
// stale assignment would keep feeding a migrated client's updates to its
// old tier's model.
type tierAware interface {
	Repartition(t *tiering.Tiers)
}

// Rebaser marks update rules that can adopt an externally merged global
// model: in a hierarchical topology the cloud folds the edges' models and
// each edge's rule rebases its server-side state onto the merged result
// before training continues. Rebase replaces the rule's model state with w
// (activity counters persist — they measure this edge's update history,
// which a merge does not erase) and returns the rule's new global
// reference, with Global's aliasing rules. ASO-Fed's rule is deliberately
// not a Rebaser: its global is a derived running average of per-client
// copies, so overwriting it without rewriting every copy would be silently
// undone by the next arrival — the engine reports an error instead.
type Rebaser interface {
	Rebase(w []float64) []float64
}

// updateRules is the registry of aggregation policies, keyed by the names
// Method.Update takes. No rule takes parameters: the async family's
// staleness discount is the run-level RunConfig.Staleness.
var updateRules = map[string]func() updateRule{
	"avg":       func() updateRule { return &avgRule{} },
	"eq5":       func() updateRule { return &eq5Rule{} },
	"uniform":   func() updateRule { return &eq5Rule{forceUniform: true} },
	"staleness": func() updateRule { return &stalenessRule{} },
	"fedasync":  func() updateRule { return &stalenessRule{perUpdate: true} },
	"asyncsgd":  func() updateRule { return &asyncSGDRule{} },
	"asofed":    func() updateRule { return &asoRule{} },
	"median":    func() updateRule { return &robustRule{kind: "median"} },
	"trimmed":   func() updateRule { return &robustRule{kind: "trimmed"} },
	"krum":      func() updateRule { return &robustRule{kind: "krum"} },
}

// modelState is the server state of every rule whose global model is one
// plain vector — the async family and the robust rules embed it. Rebase
// makes them Rebasers: the model becomes the merged one, version (the
// staleness anchors' clock) persists.
type modelState struct {
	global  []float64
	version int
}

func (m *modelState) Global() []float64 { return m.global }
func (m *modelState) Rounds() int       { return m.version }

func (m *modelState) Rebase(w []float64) []float64 {
	copy(m.global, w)
	return m.global
}

// ---------------------------------------------------------------------------
// avg: FedAvg's n_k-weighted mean. A single-tier FedAT aggregator is exactly
// that average (§4.1: "with λ=0 and one tier, FedAT becomes FedAvg"), so the
// same core drives the synchronous baselines; whatever tier the selector
// reports, updates fold into the one tier.

type avgRule struct {
	agg *core.Aggregator
}

func (r *avgRule) Init(rs *runState) error {
	agg, err := core.NewAggregator(1, rs.fab.InitialWeights(), true)
	if err != nil {
		return err
	}
	r.agg = agg
	return nil
}

func (r *avgRule) Global() []float64 { return r.agg.GlobalRef() }
func (r *avgRule) Rounds() int       { return r.agg.Rounds() }

func (r *avgRule) Fold(f fold) ([]float64, error) {
	return r.agg.UpdateTierRef(0, f.updates())
}

// Rebase implements Rebaser via the aggregator's state replacement.
func (r *avgRule) Rebase(w []float64) []float64 { return r.agg.Rebase(w) }

// ---------------------------------------------------------------------------
// eq5: FedAT's cross-tier fold — one model per tier, global model the Eq. 5
// update-count-weighted average (uniform weights under the "uniform"
// registry key, the Figure 6 ablation). Tier count comes from the profiled
// latency partition.

type eq5Rule struct {
	agg   *core.Aggregator
	tiers *tiering.Tiers
	// assignment maps client id → tier for folds that don't name a tier,
	// built from tiers on the first such fold: a tier-paced run never
	// needs it.
	assignment   []int32
	forceUniform bool
}

func (r *eq5Rule) Init(rs *runState) error {
	tiers, err := rs.partition()
	if err != nil {
		return err
	}
	agg, err := core.NewAggregator(tiers.M(), rs.fab.InitialWeights(), !r.forceUniform)
	if err != nil {
		return err
	}
	r.agg = agg
	r.tiers = tiers
	return nil
}

func (r *eq5Rule) Global() []float64 { return r.agg.GlobalRef() }
func (r *eq5Rule) Rounds() int       { return r.agg.Rounds() }

// Repartition implements tierAware: after a runtime retier, untiered folds
// route by the NEW assignment. Per-tier model state persists — a migrated
// client simply starts contributing to its new tier's model.
func (r *eq5Rule) Repartition(t *tiering.Tiers) { r.tiers, r.assignment = t, nil }

// tierOf returns client's tier for an untiered fold.
func (r *eq5Rule) tierOf(client int) (int, error) {
	if r.assignment == nil {
		r.assignment = r.tiers.Assignment()
	}
	if client < 0 || client >= len(r.assignment) {
		return 0, fmt.Errorf("eq5 fold: client %d out of range [0,%d)", client, len(r.assignment))
	}
	return int(r.assignment[client]), nil
}

// Rebase implements Rebaser: every tier model restarts from the merged
// cloud model, exactly as Algorithm 2 initializes every tier from w0.
func (r *eq5Rule) Rebase(w []float64) []float64 { return r.agg.Rebase(w) }

func (r *eq5Rule) Fold(f fold) ([]float64, error) {
	updates := f.updates()
	if f.tier >= 0 {
		return r.agg.UpdateTierRef(f.tier, updates)
	}
	// Untiered fold (tier -1: the wait-free client loops, or a sync
	// selector with no tier concept): route each update into its client's
	// profiled tier, so the Eq. 5 weighting still sees a per-tier update
	// stream. Groups fold in first-seen order — deterministic, since the
	// update order is.
	if len(updates) == 1 {
		// The wait-free loops fold one arrival at a time; skip the grouping
		// machinery entirely.
		t, err := r.tierOf(updates[0].Client)
		if err != nil {
			return nil, err
		}
		return r.agg.UpdateTierRef(t, updates)
	}
	var g []float64
	var order []int
	byTier := map[int][]core.ClientUpdate{}
	for _, u := range updates {
		t, err := r.tierOf(u.Client)
		if err != nil {
			return nil, err
		}
		if _, ok := byTier[t]; !ok {
			order = append(order, t)
		}
		byTier[t] = append(byTier[t], u)
	}
	for _, t := range order {
		var err error
		if g, err = r.agg.UpdateTierRef(t, byTier[t]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// ---------------------------------------------------------------------------
// asofed: Chen et al.'s ASO-Fed server — a per-client model copy and a
// running n_k-weighted sum, so each arrival updates the global average in
// O(params) instead of O(clients·params). It spells out its own
// global/version instead of embedding modelState because it must not be a
// Rebaser (see Rebaser).

type asoRule struct {
	copies  [][]float64
	copySum []float64
	global  []float64
	totalN  int
	version int
}

func (r *asoRule) Init(rs *runState) error {
	numClients := rs.fab.NumClients()
	r.global = rs.fab.InitialWeights()
	r.copies = make([][]float64, numClients)
	r.copySum = make([]float64, len(r.global))
	for i := 0; i < numClients; i++ {
		r.copies[i] = rs.fab.InitialWeights()
		n := rs.fab.SampleCount(i)
		r.totalN += n
		tensor.Axpy(float64(n), r.copies[i], r.copySum)
	}
	if r.totalN <= 0 {
		return fmt.Errorf("asofed: population reports no training samples")
	}
	for i := range r.global {
		r.global[i] = r.copySum[i] / float64(r.totalN)
	}
	return nil
}

func (r *asoRule) Global() []float64 { return r.global }
func (r *asoRule) Rounds() int       { return r.version }

func (r *asoRule) Fold(f fold) ([]float64, error) {
	updates := f.updates()
	if len(updates) == 0 {
		return nil, fmt.Errorf("asofed fold with no client updates")
	}
	for _, u := range updates {
		if u.Client < 0 || u.Client >= len(r.copies) {
			return nil, fmt.Errorf("asofed fold: client %d out of range [0,%d)", u.Client, len(r.copies))
		}
		if len(u.Weights) != len(r.global) {
			return nil, fmt.Errorf("asofed fold: update has %d weights, want %d", len(u.Weights), len(r.global))
		}
		n := float64(u.N)
		old := r.copies[u.Client]
		for i := range r.copySum {
			r.copySum[i] += n * (u.Weights[i] - old[i])
		}
		// Copy into the per-client buffer instead of retaining u.Weights:
		// the engine returns update buffers to the run's pool after the
		// fold, so holding the slice would alias recycled memory.
		copy(old, u.Weights)
	}
	for i := range r.global {
		r.global[i] = r.copySum[i] / float64(r.totalN)
	}
	r.version++
	return r.global, nil
}
