package fl

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/tiering"
)

// Method is a federated-learning method expressed as a declarative
// composition of policies: who trains (Select), how the loop is paced
// (Pace), how arrived updates fold into the global state (Update), and how
// clients train locally (Local). The registry below expresses every method
// the paper compares this way, and novel variants — over-selection inside
// FedAT's tiers, TiFL's credit selection feeding the Eq. 5 fold — are just
// different field values, no new loop code.
type Method struct {
	Name   string // display name, also the method's RNG stream label
	Select string // key into selectors
	Pace   string // key into pacers
	Update string // key into updateRules
	Local  LocalPolicy
}

// LocalPolicy configures the clients' local objective for a method.
type LocalPolicy struct {
	// Prox trains with the Eq. 3 proximal constraint (λ = cfg.Lambda);
	// false trains plain local SGD (λ = 0).
	Prox bool
	// VariableEpochs draws each round's local epoch count uniformly from
	// 1..cfg.LocalEpochs (FedProx's device-heterogeneity mechanism).
	VariableEpochs bool
}

// String renders the composition, e.g. "random/sync/avg".
func (m Method) String() string {
	return fmt.Sprintf("%s/%s/%s", m.Select, m.Pace, m.Update)
}

// Methods is the registry of every method the paper compares, plus the
// over-selection strategy §2.1 discusses, each as a declarative policy
// composition.
var Methods = map[string]Method{
	"fedat":          {Name: "FedAT", Select: "random", Pace: "tier", Update: "eq5", Local: LocalPolicy{Prox: true}},
	"fedavg":         {Name: "FedAvg", Select: "random", Pace: "sync", Update: "avg"},
	"fedprox":        {Name: "FedProx", Select: "random", Pace: "sync", Update: "avg", Local: LocalPolicy{Prox: true, VariableEpochs: true}},
	"tifl":           {Name: "TiFL", Select: "tifl", Pace: "sync", Update: "avg"},
	"fedasync":       {Name: "FedAsync", Select: "all", Pace: "client", Update: "staleness"},
	"asofed":         {Name: "ASO-Fed", Select: "all", Pace: "client", Update: "asofed", Local: LocalPolicy{Prox: true}},
	"fedavg-oversel": {Name: "FedAvg+oversel", Select: "oversel", Pace: "sync", Update: "avg"},
}

// MethodNames returns the registry keys in deterministic order.
func MethodNames() []string { return slices.Sorted(maps.Keys(Methods)) }

// Lookup resolves a method spec by its registry name.
func Lookup(name string) (Method, error) {
	m, ok := Methods[name]
	if !ok {
		return Method{}, fmt.Errorf("fl: unknown method %q (have %v)", name, MethodNames())
	}
	return m, nil
}

// Compose resolves a base registry method and applies policy overrides
// (empty strings keep the base's policy), deriving a display name like
// "FedAT[select=oversel]" unless an explicit name is given, and rejects a
// key no registry holds. It is the single implementation behind fedsim's
// -compose flags and fedserver's -select/-pacer/-agg flags, so the two
// CLIs' composition surfaces cannot drift.
func Compose(base, sel, pace, update, name string) (Method, error) {
	m, err := Lookup(base)
	if err != nil {
		return Method{}, err
	}
	var overrides []string
	if sel != "" {
		m.Select = sel
		overrides = append(overrides, "select="+sel)
	}
	if pace != "" {
		m.Pace = pace
		overrides = append(overrides, "pacer="+pace)
	}
	if update != "" {
		m.Update = update
		overrides = append(overrides, "agg="+update)
	}
	if name != "" {
		m.Name = name
	} else if len(overrides) > 0 {
		m.Name = fmt.Sprintf("%s[%s]", m.Name, strings.Join(overrides, ","))
	}
	if _, _, _, err := m.policies(); err != nil {
		return Method{}, fmt.Errorf("fl: %w", err)
	}
	return m, nil
}

// policies looks the method's three policy keys up in their registries and
// builds fresh instances. Compose and Start share it, so a mistyped key
// fails when the method is composed, before a server waits for clients.
func (m Method) policies() (selector, pacer, updateRule, error) {
	sel, ok := selectors[m.Select]
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown selector %q (have %v)", m.Select, slices.Sorted(maps.Keys(selectors)))
	}
	pacer, ok := pacers[m.Pace]
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown pacer %q (have %v)", m.Pace, slices.Sorted(maps.Keys(pacers)))
	}
	rule, ok := updateRules[m.Update]
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown update rule %q (have %v)", m.Update, slices.Sorted(maps.Keys(updateRules)))
	}
	return sel(), pacer, rule(), nil
}

// Run executes the method on the simulated environment and returns the run
// record — shorthand for RunOn over a fresh simulated fabric.
func (m Method) Run(env *Env, obs ...Observer) (*metrics.Run, error) {
	return m.RunOn(env.Fabric(), env.Cfg, obs...)
}

// RunOn executes the method on an execution fabric — the simulator or the
// live TCP transport — and returns the run record. Extra observers
// subscribe to the run event stream alongside the built-in Recorder.
// Composition errors (unknown policy keys, a pacer/selector mismatch),
// aggregation errors and channel errors surface here instead of panicking.
func (m Method) RunOn(fab Fabric, cfg RunConfig, obs ...Observer) (*metrics.Run, error) {
	finish, err := m.Start(fab, cfg, obs...)
	if err != nil {
		return nil, err
	}
	fab.Run()
	return finish()
}

// Start is RunOn up to the pacer's initial scheduling, leaving the clock to
// the caller (a hierarchy drives every edge's clock from one merged
// timeline). The run's StartEvent is emitted before the pacer's first
// dispatch. After the clock has run, finish emits the EndEvent and returns
// the run record, or the error that failed the run (with no EndEvent).
func (m Method) Start(fab Fabric, cfg RunConfig, obs ...Observer) (finish func() (*metrics.Run, error), err error) {
	if m.Name == "" {
		return nil, fmt.Errorf("fl: method has no name")
	}
	sel, pacer, rule, err := m.policies()
	if err != nil {
		return nil, fmt.Errorf("fl: method %s: %w", m.Name, err)
	}
	cfg = cfg.withDefaults()
	if !slices.Contains(StaleFuncs, cfg.Staleness.Func) {
		return nil, fmt.Errorf("fl: method %s: unknown staleness weight function %q (have %v)", m.Name, cfg.Staleness.Func, StaleFuncs)
	}

	root := rng.New(cfg.Seed).SplitLabeled(hashName(m.Name))
	rec := new(Recorder)
	rs := &runState{
		fab:      fab,
		cfg:      cfg,
		method:   m,
		comm:     NewComm(cfg.Codec, fab.Shapes()),
		root:     root,
		epochRNG: root.SplitLabeled(epochLabel(m, cfg)),
		sel:      sel,
		rule:     rule,
		obs:      append([]Observer{rec}, obs...),
	}
	for _, o := range obs {
		if s, ok := o.(Syncer); ok {
			rs.syncers = append(rs.syncers, s)
		}
	}
	if cfg.RetierEvery > 0 {
		rs.lat = tiering.NewTracker(fab.NumClients(), retierAlpha)
	}
	// The update rule initializes before the selector: selectors that adapt
	// to the global state (TiFL's accuracy-driven credits) may read it from
	// their first Pick on.
	if err := rs.rule.Init(rs); err != nil {
		return nil, fmt.Errorf("fl: method %s: %w", m.Name, err)
	}
	if err := rs.sel.Init(rs); err != nil {
		return nil, fmt.Errorf("fl: method %s: %w", m.Name, err)
	}
	rs.emit(StartEvent{Method: m.Name, Dataset: fab.Dataset()})
	if err := pacer.Start(rs); err != nil {
		return nil, fmt.Errorf("fl: method %s: %w", m.Name, err)
	}
	return func() (*metrics.Run, error) {
		if rs.runErr != nil {
			return nil, fmt.Errorf("fl: method %s: %w", m.Name, rs.runErr)
		}
		rs.emit(EndEvent{Round: rs.rule.Rounds(), Time: fab.Now(), UpBytes: rs.comm.Up, DownBytes: rs.comm.Down})
		return (*metrics.Run)(rec), nil
	}, nil
}

// runState is the per-run engine state shared by the policies: the fabric,
// the run configuration, the communication accounting, the composed policy
// instances and the event/eval plumbing. Policies receive it in every hook.
type runState struct {
	fab      Fabric
	cfg      RunConfig
	method   Method
	comm     *Comm
	root     *rng.RNG // method-labelled RNG root; policies split their streams off it
	epochRNG *rng.RNG // FedProx's variable-epoch stream (label 2)
	sel      selector
	rule     updateRule
	obs      []Observer
	syncers  []Syncer // observers that intervene after folds (edge uplinks)

	tiers      *tiering.Tiers // memoized latency partition
	nextEvalAt int

	// done is set once the run is over — budget reached (finish) or failed
	// (fail, which also records runErr) — so callbacks that were already in
	// flight on the fabric return without touching the model.
	done   bool
	runErr error

	// Runtime re-tiering state (RetierEvery > 0): the EWMA latency tracker
	// fed by observed round latencies, and the global update count at the
	// last retier pass.
	lat        *tiering.Tracker
	lastRetier int

	// Adaptive-LR state (cfg.AdaptiveLR): each dispatch loop's last
	// observed fold staleness, keyed by the loop — client id for the
	// wait-free pacers, tier for tier pacing, lrSyncLoop for sync pacing
	// (which never observes: a sync cohort's model is never stale, so its
	// scale stays g(0) = 1). The next dispatch of the same loop trains with
	// LR scaled by the weight function at that staleness.
	lrStale map[int]int
}

// Tiers returns the fabric's latency partition, computing it on first use —
// tier-paced methods, tier-aware selectors and the Eq. 5 fold all share one
// partition per run, exactly as FedAT reuses TiFL's tiering (§2.1).
func (rs *runState) Tiers() (*tiering.Tiers, error) {
	if rs.tiers == nil {
		t, err := rs.fab.Partition(rs.cfg)
		if err != nil {
			return nil, err
		}
		rs.tiers = t
	}
	return rs.tiers, nil
}

// lrSyncLoop keys the sync pacer's single dispatch loop in lrStale.
const lrSyncLoop = 0

// localConfig derives the round's local-training settings from the method's
// LocalPolicy. loop identifies the dispatch loop for the adaptive-LR stage
// (client id, tier, or lrSyncLoop).
func (rs *runState) localConfig(round uint64, loop int) LocalConfig {
	lambda := 0.0
	if rs.method.Local.Prox {
		if lambda = rs.cfg.Lambda; lambda < 0 {
			lambda = 0 // LambdaOff: proximal term explicitly disabled
		}
	}
	lc := LocalConfig{
		Epochs:    rs.cfg.LocalEpochs,
		BatchSize: rs.cfg.BatchSize,
		Lambda:    lambda,
		Round:     round,
		DPClip:    rs.cfg.DPClip,
		DPNoise:   rs.cfg.DPNoise,
	}
	if rs.cfg.AdaptiveLR {
		lc.LRScale = rs.cfg.Staleness.Weight(float64(rs.lrStale[loop]))
	}
	if rs.method.Local.VariableEpochs {
		lc.Epochs = 1 + rs.epochRNG.Intn(rs.cfg.LocalEpochs)
	}
	return lc
}

// observeStale records a dispatch loop's realized fold staleness — the
// global updates that accumulated between the loop's dispatch (startRound)
// and its fold — for the adaptive-LR stage. pacers call it at their fold
// sites, before the fold advances the version; sync pacing never does (its
// staleness is 0 by construction).
func (rs *runState) observeStale(loop, startRound int) {
	if !rs.cfg.AdaptiveLR {
		return
	}
	if rs.lrStale == nil {
		rs.lrStale = make(map[int]int)
	}
	s := rs.rule.Rounds() - startRound
	if s < 0 {
		s = 0
	}
	rs.lrStale[loop] = s
}

// emit broadcasts one event to every observer.
func (rs *runState) emit(ev Event) {
	for _, o := range rs.obs {
		o.OnEvent(ev)
	}
}

// emitClientDones reports each trained client's resolution and, when
// runtime re-tiering is on, folds each surviving client's observed response
// latency (dispatch to server arrival) into the EWMA tracker.
func (rs *runState) emitClientDones(tier int, start float64, results []TrainResult) {
	for i := range results {
		r := &results[i]
		rs.emit(ClientDoneEvent{Client: r.Client, Tier: tier, Time: r.Arrive, Dropped: r.Dropped})
		if rs.lat != nil && !r.Dropped {
			rs.lat.Observe(r.Client, r.Arrive-start)
		}
	}
}

// finish ends the run: the pacer's loops see done and the fabric's run loop
// returns.
func (rs *runState) finish() {
	rs.done = true
	rs.fab.Stop()
}

// fail ends the run with err, which Start's finish returns.
func (rs *runState) fail(err error) {
	rs.runErr = err
	rs.finish()
}

// fold is the engine's one fold site, called by every pacer: the update
// rule folds the batch, the batch's pooled uplink buffers go back to the
// run's weight pool (the rule retains none of them), postFold tells the
// observers and syncers, and the fresh model is evaluated at the configured
// cadence. now is the fold's timestamp — the round's completion time under
// sync pacing, the fabric clock under the others; on the live clock those
// differ. It reports false when the fold failed, in which case the run has
// already been failed.
func (rs *runState) fold(tier int, updates []core.ClientUpdate, now float64) bool {
	g, err := rs.rule.Fold(fold{Tier: tier, Updates: updates})
	if err != nil {
		rs.fail(err)
		return false
	}
	for i := range updates {
		rs.comm.Release(updates[i].Weights)
	}
	t := rs.rule.Rounds()
	if g, err = rs.postFold(tier, t, now, len(updates), g); err != nil {
		rs.fail(err)
		return false
	}
	rs.maybeEval(t, now, g)
	return true
}

// postFold finishes one engine fold: it emits the TierFoldEvent every
// observer sees, then gives each attached Syncer its chance to push the
// fresh model toward the cloud and hand back a merged model to adopt. It
// returns the global model training continues from — g itself on the flat
// fast path (no syncers: byte-identical to the pre-hierarchy engine), or
// the rebased rule state after an adoption. Its one caller is fold, so
// hierarchical sync policy lives in exactly one place.
func (rs *runState) postFold(tier, round int, now float64, kept int, g []float64) ([]float64, error) {
	rs.emit(TierFoldEvent{Tier: tier, Round: round, Time: now, Kept: kept, Global: g})
	for _, s := range rs.syncers {
		d := s.AfterFold(FoldInfo{Tier: tier, Round: round, Time: now, Global: g})
		for _, ev := range d.Events {
			rs.emit(ev)
		}
		if d.Rebase != nil {
			rb, ok := rs.rule.(Rebaser)
			if !ok {
				return nil, fmt.Errorf("update rule %q cannot adopt a hierarchical rebase", rs.method.Update)
			}
			g = rb.Rebase(d.Rebase)
		}
	}
	return g, nil
}

// maybeRetier runs a re-tiering pass when RetierEvery global updates have
// accumulated since the last one: the current partition is recomputed from
// the tracker's smoothed observed latencies with hysteresis, a tier-aware
// update rule is informed, and a retierEvent fires. It reports
// whether a pass ran. pacers whose loops depend on tier membership call it
// after each fold; synchronous pacing never does — the paper's baselines
// do not re-profile. A run with no tier partition at all (client pacing
// over an untiered update rule) has nothing to re-tier and never passes.
func (rs *runState) maybeRetier(now float64) (bool, error) {
	if rs.lat == nil || rs.tiers == nil {
		return false, nil
	}
	t := rs.rule.Rounds()
	if t < rs.lastRetier+rs.cfg.RetierEvery {
		return false, nil
	}
	rs.lastRetier = t
	next, moved, err := tiering.Retier(rs.lat.Estimates(), rs.tiers, tiering.RetierOpts{Margin: retierMargin})
	if err != nil {
		return false, err
	}
	rs.tiers = next
	if ta, ok := rs.rule.(tierAware); ok {
		ta.Repartition(next)
	}
	rs.emit(retierEvent{Round: t, Time: now, Migrations: moved, Tiers: next})
	return true, nil
}

// maybeEval evaluates the global model at the configured cadence and emits
// the Eval event the Recorder (and any other observer) consumes. Fabrics
// without an evaluation harness skip the event.
func (rs *runState) maybeEval(round int, now float64, w []float64) {
	if round < rs.nextEvalAt {
		return
	}
	rs.nextEvalAt = round + rs.cfg.EvalEvery
	res, ok := rs.fab.Evaluate(w)
	if !ok {
		return
	}
	rs.emit(EvalEvent{
		Round: round, Time: now, Result: res,
		UpBytes: rs.comm.Up, DownBytes: rs.comm.Down,
	})
}

// epochLabel picks the RNG stream label for the variable-epochs draw: the
// first label the method's selection policies do not already claim off the
// same root, so a composition's epoch counts are never correlated with its
// selection draws. The historical label assignments are fixed by the
// bit-pinned trace goldens — FedProx (random/sync) must keep label 2 — which
// is why this walks forward from 2 instead of hashing a fresh namespace.
func epochLabel(m Method, cfg RunConfig) uint64 {
	claimed := map[uint64]bool{}
	switch m.Select {
	case "random", "oversel":
		claimed[1] = true // selRNG
	case "tifl":
		claimed[1], claimed[2] = true, true // tierRNG, selRNG
	}
	if m.Pace == "tier" {
		// Per-tier streams are labelled by tier index.
		for l := 0; l < cfg.NumTiers; l++ {
			claimed[uint64(l)] = true
		}
	}
	l := uint64(2)
	for claimed[l] {
		l++
	}
	return l
}

// hashName gives each method an independent RNG stream label (FNV-1a).
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}
