package fl

import (
	"fmt"
	"math"
)

// earliestRejoin reports the soonest time any of the listed clients comes
// (back) online after now — +Inf when none ever will. Static populations
// only ever produce +Inf here (departures are permanent), so the rejoin
// paths below never schedule anything on the pre-dynamics timeline.
func earliestRejoin(rs *runState, ids []int32, now float64) float64 {
	earliest := math.Inf(1)
	for _, id := range ids {
		if t := rs.fab.NextAvailable(int(id), now); t < earliest {
			earliest = t
		}
	}
	return earliest
}

// pacer is the loop-structure policy of a method: it decides when cohorts
// train and when the update rule folds. The three loops below are the
// paper's three temporal regimes — lock-step synchronous rounds (FedAvg,
// FedProx, TiFL, over-selection), concurrent per-tier round loops (FedAT),
// and wait-free per-client loops folding every K arrivals (FedBuff; FedAsync
// and ASO-Fed are its K = 1 case).
//
// pacers are written once against the Fabric interface in continuation
// style: Start kicks off the loops without running the clock (its caller
// does), work is started with Dispatch, folds are scheduled with the
// fabric's At, and the fabric's clock decides what "concurrent" means. On
// the simulated fabric Dispatch delivers synchronously and scheduling
// queues on the virtual event loop — exactly the discrete-event structure
// the golden runs pin. On the live fabric Dispatch trains real clients over
// TCP while other cohorts proceed, and deliveries serialize on the
// wall-clock run loop. Every fold goes through rs.fold, the engine's one
// fold site, and the continuation that starts the next round runs inline
// in the same callback. Each loop keeps its state in one struct whose
// continuations are method values bound once (oneInFlight says why that
// is sound), so a round allocates no closures.
type pacer interface {
	Start(rs *runState) error
}

// pacers is the registry of pacing policies: three loops under four keys.
// "client" is the wait-free loop at K = 1 — a registry datum, so it folds
// on every arrival whatever cfg.BufferK says.
var pacers = map[string]pacer{
	"sync":    syncPacer{},
	"tier":    tierPacer{},
	"client":  bufferPacer{k: 1},
	"fedbuff": bufferPacer{},
}

// oneInFlight guards the invariant every pacer loop's state rests on: a
// loop never has more than one dispatch in flight. A loop dispatches again
// only from a continuation of its last dispatch (its fold, arrival or
// rejoin), so the fields describing the dispatch in flight — its start
// time and round, its cohort, the results it keeps — and the buffers they
// live in are rewritten only once that dispatch has resolved. A second
// dispatch while one is in flight would overwrite them under it; begin
// panics instead (TestDispatchLoopsOneInFlight).
type oneInFlight struct{ busy bool }

// begin marks a dispatch in flight, panicking if one already is.
func (g *oneInFlight) begin() {
	if g.busy {
		panic("fl: a pacer loop dispatched while its previous dispatch was in flight")
	}
	g.busy = true
}

// end marks the dispatch in flight resolved: the loop may dispatch again.
func (g *oneInFlight) end() { g.busy = false }

// ---------------------------------------------------------------------------
// sync: one global round at a time; the server waits for the round's
// completion time before starting the next — the straggler effect the paper
// sets out to fix.

type syncPacer struct{}

func (syncPacer) Start(rs *runState) error {
	sel, ok := rs.sel.(roundSelector)
	if !ok {
		return fmt.Errorf("sync pacing needs a round selector, %q is not one", rs.method.Select)
	}
	newSyncLoop(rs, sel).step(0)
	return nil
}

// newSyncLoop builds the run's sync loop with its continuations bound.
func newSyncLoop(rs *runState, sel roundSelector) *syncLoop {
	l := &syncLoop{rs: rs, sel: sel}
	l.deliverFn, l.foldFn = l.deliver, l.fold
	return l
}

// syncLoop is the sync pacer's one loop for the whole run: the selector,
// the attempt budget, and the round in flight (oneInFlight) — its tier,
// start round, start and completion times, and the buffers its cohort and
// kept results are written into.
type syncLoop struct {
	rs      *runState
	sel     roundSelector
	attempt int // guards against a fully-dropped population

	flight      oneInFlight
	tier, round int
	start, comp float64
	cohort      []int
	kept        []TrainResult

	deliverFn func([]TrainResult, error)
	foldFn    func()
}

// step picks and dispatches the next round at now, retrying skipped
// attempts, unless the budget is spent.
func (l *syncLoop) step(now float64) {
	rs, cfg := l.rs, l.rs.cfg
	for {
		if rs.rule.Rounds() >= cfg.Rounds || l.attempt >= 2*cfg.Rounds+10 {
			return
		}
		if cfg.MaxSimTime > 0 && now >= cfg.MaxSimTime {
			return
		}
		l.attempt++
		cohort, tier, selNow, outcome, err := l.sel.Pick(rs, now, &l.cohort)
		if err != nil {
			rs.fail(err)
			return
		}
		now = selNow
		if outcome == selectStop {
			return
		}
		if outcome == selectSkip {
			continue
		}
		l.flight.begin()
		l.tier, l.round, l.start = tier, rs.rule.Rounds(), now
		rs.emitRoundStart(tier, l.round, now, cohort)
		rs.fab.Dispatch(rs.comm, cohort, now, rs.rule.Global(), rs.localConfig(uint64(l.round), lrSyncLoop), l.deliverFn)
		return // the round is in flight; resume from its completion
	}
}

func (l *syncLoop) deliver(results []TrainResult, err error) {
	rs := l.rs
	if err != nil {
		rs.fail(err)
		return
	}
	rs.emitClientDones(l.tier, l.start, results)
	l.comp = l.sel.Harvest(rs, results, &l.kept)
	rs.fab.At(l.comp, l.foldFn)
}

func (l *syncLoop) fold() {
	l.flight.end()
	rs := l.rs
	// No kept update: every counted client dropped, and the round folds
	// nothing.
	if len(l.kept) > 0 && !rs.fold(l.tier, rs.in.take(l.kept, l.round), l.comp) {
		return
	}
	l.step(l.comp)
}

// ---------------------------------------------------------------------------
// tier: FedAT's Algorithm 2 — every tier runs its own synchronous round
// loop concurrently, each round training from the freshest global model at
// ITS start; folds land at each tier's own completion time.

type tierPacer struct{}

func (tierPacer) Start(rs *runState) error {
	tsel, ok := rs.sel.(tierSelector)
	if !ok {
		return fmt.Errorf("tier pacing needs a tier selector, %q is not one", rs.method.Select)
	}
	tiers, err := rs.partition()
	if err != nil {
		return err
	}
	loops := newTierLoops(rs, tsel, tiers.M())
	for m := range loops {
		loops[m].start()
	}
	return nil
}

// newTierLoops builds the loops of m tiers with their continuations bound.
func newTierLoops(rs *runState, tsel tierSelector, m int) []tierLoop {
	loops := make([]tierLoop, m)
	for i := range loops {
		l := &loops[i]
		l.rs, l.tsel, l.loops, l.m = rs, tsel, loops, i
		l.deliverFn, l.foldFn, l.startFn = l.deliver, l.fold, l.start
	}
	return loops
}

// tierLoop is tier m's round loop: the round in flight (oneInFlight) — its
// start time and round, and the buffers its cohort and kept results are
// written into — and whether the loop is running at all.
type tierLoop struct {
	rs    *runState
	tsel  tierSelector
	loops []tierLoop // every tier's loop, for the re-kick after a retier pass
	m     int

	// active tracks whether the loop is running (a round in flight or a
	// rejoin resume scheduled). A loop exits only when the tier has nobody
	// coming back; a runtime retier pass can later hand that tier live
	// members, so exited loops are re-kicked after each pass.
	active bool

	flight oneInFlight
	now    float64
	round  int
	cohort []int
	kept   []TrainResult

	deliverFn       func([]TrainResult, error)
	foldFn, startFn func()
}

// start picks and dispatches the tier's next round at the fabric's clock.
func (l *tierLoop) start() {
	rs := l.rs
	if rs.done {
		return
	}
	l.active = true
	now := rs.fab.Now()
	if rs.cfg.MaxSimTime > 0 && now >= rs.cfg.MaxSimTime {
		rs.finish()
		return
	}
	cohort := l.tsel.PickTier(rs, l.m, now, &l.cohort)
	if len(cohort) == 0 {
		// The whole tier is offline. Statically that means everyone
		// dropped for good and the tier leaves the training; under
		// transient churn members rejoin, so resume the tier's loop at
		// the earliest comeback.
		if rejoin := earliestRejoin(rs, rs.tiers.Members[l.m], now); rejoin > now && !math.IsInf(rejoin, 1) {
			rs.fab.At(rejoin, l.startFn)
			return
		}
		l.active = false
		return
	}
	l.flight.begin()
	l.now, l.round = now, rs.rule.Rounds()
	rs.emitRoundStart(l.m, l.round, now, cohort)
	rs.fab.Dispatch(rs.comm, cohort, now, rs.rule.Global(), rs.localConfig(uint64(l.round), l.m), l.deliverFn)
}

func (l *tierLoop) deliver(results []TrainResult, err error) {
	rs := l.rs
	if rs.done {
		return
	}
	if err != nil {
		rs.fail(err)
		return
	}
	rs.emitClientDones(l.m, l.now, results)
	rs.fab.At(l.tsel.Harvest(rs, results, &l.kept), l.foldFn)
}

func (l *tierLoop) fold() {
	rs := l.rs
	if rs.done {
		return
	}
	l.flight.end()
	if len(l.kept) > 0 {
		rs.observeStale(l.m, l.round)
		if !rs.fold(l.m, rs.in.take(l.kept, l.round), rs.fab.Now()) {
			return
		}
		if rs.rule.Rounds() >= rs.cfg.Rounds {
			rs.finish()
			return
		}
		retiered, err := rs.maybeRetier(rs.fab.Now())
		if err != nil {
			rs.fail(err)
			return
		}
		if retiered {
			// The pass may have migrated live clients into a tier whose
			// loop exited (all previous members gone); restart those loops
			// so no one silently leaves the training. start marks each
			// active before anything else, so a later fold cannot re-kick
			// the same tier twice.
			for m2 := range l.loops {
				if !l.loops[m2].active {
					l.loops[m2].start()
				}
			}
		}
	}
	l.start()
}

// ---------------------------------------------------------------------------
// client, fedbuff: the wait-free regime — every client trains continuously
// and the server folds once every K arrivals. At K = 1 ("client": FedAsync,
// ASO-Fed) each arrival folds immediately and the fresh model returns to
// that client alone; with the whole population talking to the server at
// once, the shared server links become the bottleneck the paper
// demonstrates. At K > 1 ("fedbuff", buffered asynchrony) the update rule
// is handed a real cohort, which turns the wait-free loop into something
// robust statistics can work with (a median over one update is that update;
// over K it is a defense), at the cost of each arrival waiting up to K-1
// peers before it reaches the global model.

// bufferPacer folds every k arrivals; k = 0 takes cfg.BufferK.
type bufferPacer struct{ k int }

func (p bufferPacer) Start(rs *runState) error {
	if _, ok := rs.sel.(allSelector); !ok {
		return fmt.Errorf("%s pacing performs no cohort selection, so selector %q would be ignored; use \"all\"", rs.method.Pace, rs.method.Select)
	}
	k := p.k
	if k == 0 {
		k = rs.cfg.BufferK
	}
	n := rs.fab.NumClients()
	if k > n {
		// Never demand more distinct arrivals than the population can
		// deliver concurrently.
		k = n
	}
	b := &arrivalBuffer{rs: rs, k: k, loops: make([]clientLoop, n)}
	for id := range n {
		b.loop(id).start()
	}
	return nil
}

// arrivalBuffer is the wait-free pacer's shared state: the client loops
// and the fold size k. An arrival lands in the run's inbox as it
// travelled — under polyline its fixed-point slot, not a float64 vector —
// and waits there for the fold of every k; the fold reads it whole or a
// tile at a time, as the rule needs, and only then gives it back. Each
// arrival carries its own start round, so per-update rules discount buffer
// members individually (batch-anchored rules recover the oldest via
// fold.startRound).
type arrivalBuffer struct {
	rs    *runState
	k     int
	loops []clientLoop // by client id; a loop is bound when its client first starts
}

// loop returns client id's loop, binding its continuations the first time.
func (b *arrivalBuffer) loop(id int) *clientLoop {
	l := &b.loops[id]
	if l.b == nil {
		l.b, l.id = b, id
		l.cohort[0] = id
		l.deliverFn, l.arriveFn, l.startFn = l.deliver, l.arrive, l.start
	}
	return l
}

// clientLoop is one client's wait-free loop: the dispatch in flight
// (oneInFlight) — its time, its start round, its one-member cohort and,
// once delivered, the result travelling to the server.
type clientLoop struct {
	b  *arrivalBuffer
	id int

	flight     oneInFlight
	cohort     [1]int
	now        float64
	startRound int
	res        TrainResult

	deliverFn         func([]TrainResult, error)
	arriveFn, startFn func()
}

// start dispatches the client's next round, or resumes the loop when
// transient churn brings the client back online (never for permanent
// departures, whose rejoin time is +Inf — the static population's only
// case).
func (l *clientLoop) start() {
	rs := l.b.rs
	if rs.done {
		return
	}
	now := rs.fab.Now()
	if !rs.fab.Available(l.id, now) {
		if rejoin := rs.fab.NextAvailable(l.id, now); rejoin > now && !math.IsInf(rejoin, 1) {
			rs.fab.At(rejoin, l.startFn)
		}
		return
	}
	l.flight.begin()
	l.now, l.startRound = now, rs.rule.Rounds()
	rs.fab.Dispatch(rs.comm, l.cohort[:], now, rs.rule.Global(), rs.localConfig(uint64(l.startRound), l.id), l.deliverFn)
}

func (l *clientLoop) deliver(results []TrainResult, err error) {
	rs := l.b.rs
	if rs.done {
		return
	}
	if err != nil {
		rs.fail(err)
		return
	}
	l.res = results[0]
	r := &l.res
	if rs.lat != nil && !r.Dropped {
		rs.lat.Observe(r.Client, r.Arrive-l.now)
	}
	if r.Dropped {
		l.flight.end()
		rs.emit(ClientDoneEvent{Client: r.Client, Tier: -1, Time: r.Arrive, Dropped: true})
		// The update is lost; a churned client still comes back.
		if rejoin := rs.fab.NextAvailable(l.id, r.Arrive); !math.IsInf(rejoin, 1) {
			rs.fab.At(rejoin, l.startFn)
		}
		return
	}
	rs.fab.At(r.Arrive, l.arriveFn)
}

// arrive lands the client's update in the buffer, folds when it holds k,
// and starts the client's next round.
func (l *clientLoop) arrive() {
	b, rs := l.b, l.b.rs
	if rs.done {
		return
	}
	l.flight.end()
	r := l.res
	rs.emit(ClientDoneEvent{Client: r.Client, Tier: -1, Time: r.Arrive})
	rs.in.add(r, l.startRound)
	if rs.in.Len() >= b.k {
		for _, u := range rs.in.ups {
			rs.observeStale(u.Client, u.StartRound)
		}
		if !rs.fold(-1, &rs.in, rs.fab.Now()) {
			return
		}
		if rs.rule.Rounds() >= rs.cfg.Rounds || (rs.cfg.MaxSimTime > 0 && rs.fab.Now() >= rs.cfg.MaxSimTime) {
			rs.finish()
			return
		}
		if _, err := rs.maybeRetier(rs.fab.Now()); err != nil {
			rs.fail(err)
			return
		}
	}
	l.start()
}
