package fl

import (
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// selectAvailable samples up to k distinct clients from ids that are online
// on the fabric at time now — the sampling law (DESIGN.md §2): a partial
// forward Fisher–Yates over ids itself. Step t draws j = t + Intn(n−t) from
// r, swaps ids[t] and ids[j], and asks the fabric about the drawn candidate
// only: online, it is the next pick; offline, it is skipped. The walk stops
// at k picks or when ids is exhausted, so the picks are a uniform ordered
// sample without replacement of the online members, nil iff none is online,
// and a cohort costs O(k) draws and availability probes while most of ids
// is online — O(len(ids)) only when most of it is not. The swaps are then
// undone in reverse from the log kept in the selector's scratch, leaving
// ids exactly as found. The picks are written into *cohort, the calling
// loop's buffer, which keeps its storage for that loop's next cohort: tier
// rounds overlap, so each loop picks into its own buffer, and a loop picks
// again only after its last cohort has been dispatched and folded. ids is a
// tier's int32 members or the whole population's int ids.
func selectAvailable[ID int | int32](scratch *[]int, cohort *[]int, r *rng.RNG, ids []ID, fab Fabric, now float64, k int) []int {
	if k <= 0 {
		return nil
	}
	n := len(ids)
	picks := (*cohort)[:0]
	swaps := (*scratch)[:0]
	for t := 0; t < n && len(picks) < k; t++ {
		j := t + r.Intn(n-t)
		ids[t], ids[j] = ids[j], ids[t]
		swaps = append(swaps, j)
		if fab.Available(int(ids[t]), now) {
			if len(picks) == 0 && cap(picks) < min(k, n) {
				// One allocation, at the first accept of a buffer too
				// small: growing by append would cost several.
				picks = make([]int, 0, min(k, n))
			}
			picks = append(picks, int(ids[t]))
		}
	}
	for t := len(swaps) - 1; t >= 0; t-- {
		j := swaps[t]
		ids[t], ids[j] = ids[j], ids[t]
	}
	*scratch, *cohort = swaps, picks
	if len(picks) == 0 {
		return nil
	}
	return picks
}

// runCohort is the simulated Dispatch body: one synchronous round over the
// cohort sel, starting at virtual time start from the global snapshot:
//
//	download (client link + shared server downlink) → local training
//	(batch steps × per-batch time + the injected tier delay) → upload
//	(client link + shared server uplink).
//
// Local training executes in parallel on the environment's replicas; all
// timing, RNG and link reservations happen sequentially in selection
// order, so results are deterministic. Clients that drop mid-round lose
// their update (§6's unstable clients). A surviving result holds its upload
// as the Comm holds it in flight — a fixed-point slot under polyline, a
// pooled reconstruction otherwise — and the server's weights exist only once
// a pacer reads it with Comm.receive. Each member trains into a buffer of
// the run's weight pool, which the upload hands back once it has sent it; a
// dropped member's buffer goes back unsent and its result holds no weights.
// So the weight pool is the only owner of model-sized results, and the
// positions are reusable the moment this returns.
//
// The returned results are the prefix of e.results, which the simulated
// fabric clears once deliver returns: a deliver callback copies what it
// keeps (Harvest, the wait-free loops' result in flight).
func (e *Env) runCohort(sel []int, start float64, global []float64, comm *Comm, lc LocalConfig) []TrainResult {
	if len(sel) == 0 {
		return nil
	}
	// Downlink: the snapshot crosses the codec once and every member trains
	// from the same pooled reconstruction — TrainLocal only reads it (as
	// start point and proximal anchor), and each member would have decoded
	// the identical bytes. Bytes and link time are still charged per
	// member. The snapshot only needs to live until local training ends, so
	// it goes back to the pool before this function returns.
	received, bytes := comm.broadcast(global, len(sel))
	if len(e.members) < len(sel) {
		e.members = append(e.members, make([]member, len(sel)-len(e.members))...)
		e.results = append(e.results, make([]TrainResult, len(sel)-len(e.results))...)
	}
	members, results := e.members[:len(sel)], e.results[:len(sel)]
	pool := comm.Pool(len(global))
	for i, id := range sel {
		m := &members[i]
		m.id = id
		m.rt = e.pop.Materialize(id) // not safe to call concurrently
		m.downDone = e.pop.DownloadArrival(start, bytes)
		results[i] = TrainResult{Weights: pool.Get()} // member i trains into it
	}

	// Per-member local training is the eligible parallel section: body i
	// holds one replica for its whole TrainLocal, derives member i's RNG
	// streams, and writes only member i's slot and result (the determinism
	// contract documented in internal/parallel). Dynamic dispatch, because
	// non-IID clients have wildly different local data sizes — static
	// chunks would serialize the expensive clients on one worker. No more
	// workers run than there are replicas, whatever GOMAXPROCS has become
	// since newEnv, so a body always finds one idle. Selection, timing and
	// link reservations stay sequential around it. The body is e.train,
	// bound once, and reads the dispatch's inputs from e.
	e.received, e.lc = received, lc
	parallel.Dynamic(len(sel), min(parallel.Workers(len(sel)), len(e.replicas)), e.train)
	// All training is done; the downlink snapshot is dead.
	e.received = nil
	comm.Release(received)

	// Sequential post-pass: delays, drops and uplink in selection order.
	// Compute time is evaluated at the round's download-arrival instant, so
	// speed drift (simnet.BehaviorConfig) takes effect; without drift
	// ComputeTimeAt is exactly the static arithmetic.
	for i := range results {
		r := &results[i]
		rt, downDone := members[i].rt, members[i].downDone
		computeDone := downDone + rt.ComputeTimeAt(r.steps, downDone) + rt.RoundDelay()
		// A round is lost if the client is offline at ANY point of it —
		// a churn window wholly inside the round disrupts training even
		// though the client is back by the end. Without churn this is
		// exactly the historical endpoint check.
		if rt.OfflineWithin(start, computeDone) {
			r.Dropped = true
			r.Arrive = computeDone
			comm.Release(r.Weights) // no upload happened
			r.Weights = nil
			continue
		}
		// The uplink replaces the member's training buffer with the upload in
		// flight, which the engine reads at arrival and releases after the
		// fold.
		r.Arrive = e.pop.UploadArrival(computeDone, comm.upload(r))
	}
	return results
}

// survivors copies the results that were not dropped into *kept, the
// calling loop's buffer, sized once for a whole cohort, and returns them.
// It cannot filter in place: the harvests read the unfiltered results
// afterwards, completionTime counts the dropped, and the results are the
// engine's, cleared before this round folds.
func survivors(kept *[]TrainResult, results []TrainResult) []TrainResult {
	out := (*kept)[:0]
	if cap(out) < len(results) {
		out = make([]TrainResult, 0, len(results))
	}
	for _, r := range results {
		if !r.Dropped {
			out = append(out, r)
		}
	}
	*kept = out
	return out
}

// completionTime is when the slowest upload lands — the length of a
// synchronous round ("the server has to wait for the slowest clients").
// Dropped clients bound it too: the server discovers the loss no earlier
// than the time the update would have been due.
func completionTime(results []TrainResult) float64 {
	t := 0.0
	for _, r := range results {
		if r.Arrive > t {
			t = r.Arrive
		}
	}
	return t
}

// toUpdates reads surviving results into aggregator updates (Comm.receive),
// stamping the cohort's shared staleness anchor (the global update count at
// dispatch) on each. The updates are written into *ups, the calling loop's
// buffer; the fold reads them and retains none.
func toUpdates(ups *[]core.ClientUpdate, comm *Comm, results []TrainResult, startRound int) []core.ClientUpdate {
	out := (*ups)[:0]
	if cap(out) < len(results) {
		out = make([]core.ClientUpdate, 0, len(results))
	}
	for _, r := range results {
		out = append(out, core.ClientUpdate{Weights: comm.receive(r), N: r.N, Client: r.Client, StartRound: startRound})
	}
	*ups = out
	return out
}
