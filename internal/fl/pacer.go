package fl

import (
	"fmt"
	"math"

	"repro/internal/core"
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

// Pacer is the loop-structure policy of a method: it decides when cohorts
// train and when the update rule folds. The three loops below are the
// paper's three temporal regimes — lock-step synchronous rounds (FedAvg,
// FedProx, TiFL, over-selection), concurrent per-tier round loops (FedAT),
// and wait-free per-client loops folding every K arrivals (FedBuff; FedAsync
// and ASO-Fed are its K = 1 case).
//
// Pacers are written once against the Fabric interface in continuation
// style: Start kicks off the loops without running the clock (its caller
// does), work is started with Dispatch, folds are scheduled with the
// fabric's At, and the fabric's clock decides what "concurrent" means. On
// the simulated fabric Dispatch delivers synchronously and scheduling
// queues on the virtual event loop — exactly the discrete-event structure
// the golden runs pin. On the live fabric Dispatch trains real clients over
// TCP while other cohorts proceed, and deliveries serialize on the
// wall-clock run loop. Every fold goes through rs.fold, the engine's one
// fold site, and the continuation that starts the next round runs inline
// in the same callback.
type Pacer interface {
	Start(rs *runState) error
}

// Pacers is the registry of pacing policies: three loops under four keys.
// "client" is the wait-free loop at K = 1 — a registry datum, so it folds
// on every arrival whatever cfg.BufferK says.
var Pacers = map[string]Pacer{
	"sync":    syncPacer{},
	"tier":    tierPacer{},
	"client":  bufferPacer{k: 1},
	"fedbuff": bufferPacer{},
}

// ---------------------------------------------------------------------------
// sync: one global round at a time; the server waits for the round's
// completion time before starting the next — the straggler effect the paper
// sets out to fix.

type syncPacer struct{}

func (syncPacer) Start(rs *runState) error {
	sel, ok := rs.sel.(RoundSelector)
	if !ok {
		return fmt.Errorf("sync pacing needs a round selector, %q is not one", rs.method.Select)
	}
	cfg := rs.cfg
	// Attempt budget guards against a fully-dropped population.
	attempt := 0
	var step func(now float64)
	step = func(now float64) {
		for {
			if rs.rule.Rounds() >= cfg.Rounds || attempt >= 2*cfg.Rounds+10 {
				return
			}
			if cfg.MaxSimTime > 0 && now >= cfg.MaxSimTime {
				return
			}
			attempt++
			cohort, tier, selNow, outcome, err := sel.Pick(rs, now)
			if err != nil {
				rs.fail(err)
				return
			}
			now = selNow
			if outcome == SelectStop {
				return
			}
			if outcome == SelectSkip {
				continue
			}
			round := rs.rule.Rounds()
			rs.emit(RoundStartEvent{Tier: tier, Round: round, Time: now, Clients: cohort})
			start := now
			rs.fab.Dispatch(rs.comm, cohort, now, rs.rule.Global(), rs.localConfig(uint64(round), lrSyncLoop), func(results []TrainResult, err error) {
				if err != nil {
					rs.fail(err)
					return
				}
				rs.emitClientDones(tier, start, results)
				kept, comp := sel.Harvest(rs, results)
				rs.fab.At(comp, func() {
					// No kept update: every counted client dropped, and the
					// round folds nothing.
					if len(kept) > 0 && !rs.fold(tier, toUpdates(rs.comm, kept, round), comp) {
						return
					}
					step(comp)
				})
			})
			return // the round is in flight; resume from its completion
		}
	}
	step(0)
	return nil
}

// ---------------------------------------------------------------------------
// tier: FedAT's Algorithm 2 — every tier runs its own synchronous round
// loop concurrently, each round training from the freshest global model at
// ITS start; folds land at each tier's own completion time.

type tierPacer struct{}

func (tierPacer) Start(rs *runState) error {
	tsel, ok := rs.sel.(TierSelector)
	if !ok {
		return fmt.Errorf("tier pacing needs a tier selector, %q is not one", rs.method.Select)
	}
	tiers, err := rs.Tiers()
	if err != nil {
		return err
	}
	cfg := rs.cfg

	// active[m] tracks whether tier m's loop is running (a round in flight
	// or a rejoin resume scheduled). A loop exits only when the tier has
	// nobody coming back; a runtime retier pass can later hand that tier
	// live members, so exited loops are re-kicked after each pass.
	active := make([]bool, tiers.M())
	var tierRound func(m int)
	tierRound = func(m int) {
		if rs.done {
			return
		}
		active[m] = true
		now := rs.fab.Now()
		if cfg.MaxSimTime > 0 && now >= cfg.MaxSimTime {
			rs.finish()
			return
		}
		cohort := tsel.PickTier(rs, m, now)
		if len(cohort) == 0 {
			// The whole tier is offline. Statically that means everyone
			// dropped for good and the tier leaves the training; under
			// transient churn members rejoin, so resume the tier's loop at
			// the earliest comeback.
			if rejoin := earliestRejoin(rs, rs.tiers.Members[m], now); rejoin > now && !math.IsInf(rejoin, 1) {
				rs.fab.At(rejoin, func() { tierRound(m) })
				return
			}
			active[m] = false
			return
		}
		round := rs.rule.Rounds()
		rs.emit(RoundStartEvent{Tier: m, Round: round, Time: now, Clients: cohort})
		rs.fab.Dispatch(rs.comm, cohort, now, rs.rule.Global(), rs.localConfig(uint64(round), m), func(results []TrainResult, err error) {
			if rs.done {
				return
			}
			if err != nil {
				rs.fail(err)
				return
			}
			rs.emitClientDones(m, now, results)
			kept, comp := tsel.Harvest(rs, results)
			rs.fab.At(comp, func() {
				if rs.done {
					return
				}
				if len(kept) > 0 {
					rs.observeStale(m, round)
					if !rs.fold(m, toUpdates(rs.comm, kept, round), rs.fab.Now()) {
						return
					}
					if rs.rule.Rounds() >= cfg.Rounds {
						rs.finish()
						return
					}
					retiered, err := rs.maybeRetier(rs.fab.Now())
					if err != nil {
						rs.fail(err)
						return
					}
					if retiered {
						// The pass may have migrated live clients into a
						// tier whose loop exited (all previous members
						// gone); restart those loops so no one silently
						// leaves the training. Mark each active before its
						// kick so a later fold cannot re-kick the same tier
						// twice.
						for m2 := range active {
							if !active[m2] {
								active[m2] = true
								tierRound(m2)
							}
						}
					}
				}
				tierRound(m)
			})
		})
	}
	for m := 0; m < tiers.M(); m++ {
		tierRound(m)
	}
	return nil
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
	if _, ok := rs.sel.(FreeSelector); !ok {
		return fmt.Errorf("%s pacing performs no cohort selection, so selector %q would be ignored; use \"all\"", rs.method.Pace, rs.method.Select)
	}
	cfg := rs.cfg
	k := p.k
	if k == 0 {
		k = cfg.BufferK
	}
	if n := rs.fab.NumClients(); k > n {
		// Never demand more distinct arrivals than the population can
		// deliver concurrently.
		k = n
	}

	// The arrival buffer. An update is read (Comm.Receive) as it arrives,
	// into a pooled buffer the engine recycles only after the fold that
	// consumes it; until then it waits in flight at the Comm's cost. Each
	// arrival carries its own start round, so per-update rules discount
	// buffer members individually (batch-anchored rules recover the oldest
	// via Fold.StartRound).
	buf := make([]core.ClientUpdate, 0, k)

	var startClient func(id int)
	startClient = func(id int) {
		if rs.done {
			return
		}
		now := rs.fab.Now()
		if !rs.fab.Available(id, now) {
			// Resume the client's loop when transient churn brings it back
			// online (never for permanent departures, whose rejoin time is
			// +Inf — the static population's only case).
			if rejoin := rs.fab.NextAvailable(id, now); rejoin > now && !math.IsInf(rejoin, 1) {
				rs.fab.At(rejoin, func() { startClient(id) })
			}
			return
		}
		startRound := rs.rule.Rounds()
		rs.fab.Dispatch(rs.comm, []int{id}, now, rs.rule.Global(), rs.localConfig(uint64(startRound), id), func(results []TrainResult, err error) {
			if rs.done {
				return
			}
			if err != nil {
				rs.fail(err)
				return
			}
			r := results[0]
			if rs.lat != nil && !r.Dropped {
				rs.lat.Observe(r.Client, r.Arrive-now)
			}
			if r.Dropped {
				rs.emit(ClientDoneEvent{Client: r.Client, Tier: -1, Time: r.Arrive, Dropped: true})
				// The update is lost; a churned client still comes back.
				if rejoin := rs.fab.NextAvailable(id, r.Arrive); !math.IsInf(rejoin, 1) {
					rs.fab.At(rejoin, func() { startClient(id) })
				}
				return
			}
			rs.fab.At(r.Arrive, func() {
				if rs.done {
					return
				}
				rs.emit(ClientDoneEvent{Client: r.Client, Tier: -1, Time: r.Arrive})
				buf = append(buf, core.ClientUpdate{Weights: rs.comm.Receive(r), N: r.N, Client: r.Client, StartRound: startRound})
				if len(buf) >= k {
					for _, u := range buf {
						rs.observeStale(u.Client, u.StartRound)
					}
					if !rs.fold(-1, buf, rs.fab.Now()) {
						return
					}
					buf = buf[:0]
					if rs.rule.Rounds() >= cfg.Rounds || (cfg.MaxSimTime > 0 && rs.fab.Now() >= cfg.MaxSimTime) {
						rs.finish()
						return
					}
					if _, err := rs.maybeRetier(rs.fab.Now()); err != nil {
						rs.fail(err)
						return
					}
				}
				startClient(id)
			})
		})
	}
	for id := 0; id < rs.fab.NumClients(); id++ {
		startClient(id)
	}
	return nil
}
