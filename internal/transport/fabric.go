package transport

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/fl"
	"repro/internal/tensor"
	"repro/internal/tiering"
)

// liveFabric implements fl.Fabric over the server's registered TCP
// connections: Dispatch ships the global model to a cohort and arms each
// member's reader for its response, the rtClock is the timeline, and the
// latency partition comes from registration hints. The engine goroutine
// (the clock loop) is the only one that touches fl engine state; the
// connections' readers fill a round's results and the last one posts the
// round back through the clock's queue.
type liveFabric struct {
	*rtClock
	s *Server
	// free holds the round records no round is using; engine goroutine
	// only.
	free []*liveRound
}

var _ fl.Fabric = (*liveFabric)(nil)

func (f *liveFabric) Dataset() string { return f.s.cfg.Dataset }
func (f *liveFabric) NumClients() int { return f.s.cfg.NumClients }

// SampleCount reports the size the client declared at registration; it
// survives a disconnect so update rules keyed on n_k stay consistent.
func (f *liveFabric) SampleCount(id int) int { return int(f.s.regs[id].numSamples) }

// Available means "still connected and not mid-round": a live client has no
// simulated drop schedule, it can take work until its connection goes away,
// one round at a time.
func (f *liveFabric) Available(id int, _ float64) bool {
	cc := f.s.get(uint32(id))
	return cc != nil && !cc.inRound
}

// NextAvailable is now for connected clients and +Inf otherwise: the live
// fabric has no rejoin schedule — registration happens once, so a
// disconnected client is gone for the rest of the run. A client that is only
// mid-round also reports now (its return has no known time); a tier loop
// that finds every member busy elsewhere exits like any drained tier and is
// restarted by the next retier pass.
func (f *liveFabric) NextAvailable(id int, now float64) float64 {
	if f.s.get(uint32(id)) != nil {
		return now
	}
	return math.Inf(1)
}

func (f *liveFabric) InitialWeights() []float64 {
	out := make([]float64, len(f.s.cfg.W0))
	copy(out, f.s.cfg.W0)
	return out
}

func (f *liveFabric) Shapes() []codec.ShapeInfo { return f.s.cfg.Shapes }

// Partition tiers the population by the latency hints clients registered
// with — the live stand-in for the simulator's profiling round. With
// Run.RetierEvery set, this one-shot hint partition is only the starting
// point: the engine re-tiers from MEASURED wall-clock response latencies as
// rounds complete, so a mis-declared hint is corrected by observation.
func (f *liveFabric) Partition(cfg fl.RunConfig) (*tiering.Tiers, error) {
	lat := make([]float64, f.s.cfg.NumClients)
	for id := range lat {
		lat[id] = float64(f.s.regs[id].latencyHintMs)
	}
	return tiering.Partition(lat, cfg.NumTiers)
}

// Dispatch pushes the model to every cohort member and arms each member's
// reader for its response; when the last member resolves, the round's
// finish (byte accounting, then deliver) runs on the clock goroutine.
// Dispatch starts no goroutine: the round is a record from the fabric's
// free list, back on it once deliver returns. Clients whose connection
// fails mid-round come back Dropped — the live analogue of the simulator's
// unstable clients — and the round proceeds without them.
//
// With a server-side attack regime configured, the deterministic attacker
// subset gets a second payload whose header carries the directive; honest
// members see a directive-free push, so the byte stream they receive is
// identical to an attack-free deployment.
func (f *liveFabric) Dispatch(comm *fl.Comm, cohort []int, now float64, global []float64, lc fl.LocalConfig, deliver func([]fl.TrainResult, error)) {
	spec := PushSpec{
		Round: lc.Round, Epochs: lc.Epochs, Batch: lc.BatchSize, Lambda: lc.Lambda,
		dpClip: lc.DPClip, dpNoise: lc.DPNoise, lrScale: lc.LRScale,
	}
	// The push is encoded once, in place, into a frame buffer borrowed until
	// the sends return.
	push, err := codec.AppendModel(beginPush(newFrame(), spec), f.s.codec, f.s.cfg.Shapes, global)
	if err != nil {
		frames.Put(push)
		deliver(nil, fmt.Errorf("transport: marshal model: %w", err))
		return
	}
	var atkPush []byte
	if len(f.s.attackers) > 0 {
		aspec := spec
		aspec.attack = uint8(f.s.cfg.Attack.Kind)
		aspec.attackScale = f.s.cfg.Attack.Scale
		// Same bytes under a directive header — same length as push, so
		// the byte accounting is unchanged.
		atkPush = append(frames.Get(len(push))[:0], push...)
		putPushHeader(atkPush[frameHeaderLen:], aspec)
	}

	rd := f.newRound(len(cohort))
	rd.comm, rd.deliver = comm, deliver
	// Arrivals decode into buffers from the run's weight pool, which the
	// engine's releases after each fold feed; the pool is resolved here, on
	// the engine goroutine, and only Get/Put from the readers.
	rd.pool = comm.Pool(len(global))
	rd.wire = [2]byte(push[frameHeaderLen+pushHeaderLen:])
	rd.round = lc.Round
	rd.downBytes = int64(len(push))
	rd.pending.Store(1) // Dispatch's own, retired once every member is armed
	f.hold()
	deadline := time.Now().Add(f.s.cfg.RoundTimeout)
	for i, id := range cohort {
		rd.results[i] = fl.TrainResult{Client: id, Dropped: true, Arrive: now}
		cc := f.s.get(uint32(id))
		if cc == nil || !f.s.arm(cc, rd, i, deadline) {
			continue
		}
		cc.inRound = true
		p := push
		if atkPush != nil && f.s.attackers[id] {
			p = atkPush
		}
		if err := cc.send(p); err != nil {
			// Closing the connection ends its reader, which resolves the
			// slot as dropped.
			f.s.drop(cc, err)
			continue
		}
		rd.pushed++
	}
	frames.Put(push)
	frames.Put(atkPush)
	rd.resolve()
}

// liveRound is one dispatched cohort round: the members' results and
// uplink bytes, which their readers fill, and what finish needs to account
// for and deliver them. Records cycle through the fabric's free list, so a
// round allocates nothing once the list is warm.
type liveRound struct {
	f       *liveFabric
	results []fl.TrainResult // index-aligned with the cohort
	upBytes []int64
	// pending counts the armed members still unresolved, plus one that
	// Dispatch holds while it arms; whoever retires the last posts finish.
	pending atomic.Int32
	// pool lends the arrivals' weight buffers; wire is the push's model
	// codec id and precision, the only one an update may come back in.
	pool      *tensor.Pool
	wire      [2]byte
	round     uint64
	downBytes int64 // one push frame
	pushed    int   // members the push reached
	comm      *fl.Comm
	deliver   func([]fl.TrainResult, error)
	finish    func() // complete, bound once
}

// newRound takes a record from the free list (or makes one) sized for n
// members, every upBytes slot zero.
func (f *liveFabric) newRound(n int) *liveRound {
	var rd *liveRound
	if k := len(f.free); k > 0 {
		rd, f.free = f.free[k-1], f.free[:k-1]
	} else {
		rd = &liveRound{f: f}
		rd.finish = rd.complete
	}
	rd.results = slices.Grow(rd.results[:0], n)[:n]
	rd.upBytes = slices.Grow(rd.upBytes[:0], n)[:n]
	clear(rd.upBytes)
	rd.pushed = 0
	return rd
}

// resolve retires one member (or Dispatch's own count); the last posts
// finish to the clock goroutine and releases the round's hold on it.
func (rd *liveRound) resolve() {
	if rd.pending.Add(-1) == 0 {
		rd.f.post(rd.finish)
		rd.f.release()
	}
}

// complete is the round's finish, on the clock goroutine: byte accounting
// (comm is not safe for concurrent use), the members freed for their next
// round, deliver, and the record back on the free list. The results live
// only during deliver (see fl.Fabric); clearing them and the run's
// references keeps a Server that outlives its Run from holding the run's
// weight buffers and engine state through the list.
func (rd *liveRound) complete() {
	rd.comm.CountControl(rd.downBytes*int64(rd.pushed), false)
	for _, up := range rd.upBytes {
		rd.comm.CountControl(up, true)
	}
	for _, r := range rd.results {
		if cc := rd.f.s.get(uint32(r.Client)); cc != nil {
			cc.inRound = false
		}
	}
	rd.deliver(rd.results, nil)
	clear(rd.results)
	rd.comm, rd.deliver, rd.pool = nil, nil, nil
	rd.f.free = append(rd.f.free, rd)
}

// arm makes slot i of rd the round cc's reader answers next and sets the
// read deadline, before the push goes out, so a silent peer cannot hold the
// round past it. It reports false, arming nothing, once cc's reader has
// exited (nothing would resolve the slot) or shutdown has begun.
func (s *Server) arm(cc *clientConn, rd *liveRound, i int, deadline time.Time) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed || s.stopping.Load() {
		return false
	}
	cc.round, cc.slot = rd, i
	rd.pending.Add(1)
	cc.conn.SetReadDeadline(deadline)
	return true
}

// answer is a client reader's frame handler: the frame must be cc's update
// for the round armed on it. It clears the read deadline and fills the
// member's slot. A frame with no round pending, or an update that fails
// collect, is an error: the reader ends, and hangUp drops the client and
// resolves any slot still armed as dropped.
func (s *Server) answer(cc *clientConn, typ byte, payload []byte) error {
	cc.mu.Lock()
	rd, i := cc.round, cc.slot
	cc.mu.Unlock()
	if rd == nil {
		frames.Put(payload)
		return fmt.Errorf("transport: client %d sent message type %d with no round pending", cc.reg.clientID, typ)
	}
	r, err := rd.collect(cc, typ, payload)
	if err != nil {
		return err
	}
	cc.mu.Lock()
	cc.round = nil
	cc.conn.SetReadDeadline(time.Time{})
	cc.mu.Unlock()
	rd.results[i] = r
	rd.upBytes[i] = int64(frameBytes(len(payload)))
	rd.resolve()
	return nil
}

// hangUp runs once when a client's reader ends: the client is dropped (the
// error logged unless the server is shutting down, when it is teardown
// noise), no round can arm on it again, and a round it owed an update
// resolves its slot as dropped, so the round never waits on a reader that
// is gone.
func (s *Server) hangUp(cc *clientConn, err error) {
	if s.stopping.Load() {
		err = nil
	}
	s.drop(cc, err)
	cc.mu.Lock()
	cc.closed = true
	rd, i := cc.round, cc.slot
	cc.round = nil
	cc.mu.Unlock()
	if rd != nil {
		rd.results[i].Arrive = rd.f.Now()
		rd.resolve()
	}
}

// collect decodes one client's trained response to rd, always returning the
// frame's buffer. An update is refused when it is not for rd's round, has
// no samples, names another client or sample count than the connection
// registered (a claimed count would outweigh the cohort in the fold), or
// carries a model message in any other codec than the push's (a top-k delta
// or a lossier polyline would otherwise fold as if it were the model). The weights decode into a buffer from rd's pool, which the
// result carries to the engine.
func (rd *liveRound) collect(cc *clientConn, typ byte, payload []byte) (fl.TrainResult, error) {
	defer frames.Put(payload)
	if typ != MsgModelUpdate {
		return fl.TrainResult{}, fmt.Errorf("transport: client %d sent message type %d mid-round", cc.reg.clientID, typ)
	}
	id, numSamples, gotRound, model, err := ParseModelUpdate(payload)
	if err != nil {
		return fl.TrainResult{}, err
	}
	if gotRound != rd.round {
		return fl.TrainResult{}, fmt.Errorf("transport: client %d answered round %d, want %d", cc.reg.clientID, gotRound, rd.round)
	}
	if numSamples == 0 {
		return fl.TrainResult{}, fmt.Errorf("transport: client %d update with zero samples", cc.reg.clientID)
	}
	if id != cc.reg.clientID || numSamples != cc.reg.numSamples {
		return fl.TrainResult{}, fmt.Errorf("transport: client %d (%d samples) sent an update as client %d with %d samples",
			cc.reg.clientID, cc.reg.numSamples, id, numSamples)
	}
	if len(model) < 2 || [2]byte(model) != rd.wire {
		return fl.TrainResult{}, fmt.Errorf("transport: client %d update is not in the push's codec", cc.reg.clientID)
	}
	w := rd.pool.Get()
	if err := codec.UnmarshalModelInto(model, w); err != nil {
		rd.pool.Put(w)
		return fl.TrainResult{}, err
	}
	return fl.TrainResult{
		Client:  int(cc.reg.clientID),
		Weights: w,
		N:       int(numSamples),
		Arrive:  rd.f.Now(),
	}, nil
}

// Probe tallies the control traffic of a bookkeeping sweep (model down,
// small reply up, per client). The live fabric performs no extra network
// round-trip for it — the cost model keeps byte totals comparable with the
// simulator's — and the sweep completes immediately on the wall clock.
func (f *liveFabric) Probe(comm *fl.Comm, ids []int, now float64, w []float64, replyBytes int) (float64, error) {
	if len(ids) == 0 {
		return now, nil
	}
	msg, err := codec.AppendModel(newFrame(), f.s.codec, f.s.cfg.Shapes, w)
	size := int64(frameBytes(len(msg)))
	frames.Put(msg)
	if err != nil {
		return 0, fmt.Errorf("transport: marshal model: %w", err)
	}
	comm.CountControl(size*int64(len(ids)), false)
	comm.CountControl(int64(replyBytes)*int64(len(ids)), true)
	return now, nil
}

// Evaluate runs the server-side evaluation harness over the mirrored
// federation, when the operator provided one (cmd/fedserver always does).
func (f *liveFabric) Evaluate(w []float64) (fl.Result, bool) {
	if f.s.cfg.Eval == nil {
		return fl.Result{}, false
	}
	return f.s.cfg.Eval.Evaluate(w), true
}

func (f *liveFabric) EvaluateSubset(w []float64, ids []int) float64 {
	if f.s.cfg.Eval == nil {
		return 0
	}
	return f.s.cfg.Eval.EvaluateSubset(w, ids)
}

// frameBytes is the on-wire size of a frame with the given payload length.
func frameBytes(payloadLen int) int { return frameHeaderLen + payloadLen }
