package transport

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/fl"
	"repro/internal/tensor"
	"repro/internal/tiering"
)

// liveFabric implements fl.Fabric over the server's registered TCP
// connections: Dispatch ships the global model to a cohort and collects the
// trained responses concurrently, the rtClock is the timeline, and the
// latency partition comes from registration hints. The engine goroutine
// (the clock loop) is the only one that touches fl engine state; collector
// goroutines hand results back through the clock's queue.
type liveFabric struct {
	*rtClock
	s *Server
}

var _ fl.Fabric = (*liveFabric)(nil)

func (f *liveFabric) Dataset() string { return f.s.cfg.Dataset }
func (f *liveFabric) NumClients() int { return f.s.cfg.NumClients }

// SampleCount reports the size the client declared at registration; it
// survives a disconnect so update rules keyed on n_k stay consistent.
func (f *liveFabric) SampleCount(id int) int { return int(f.s.regs[id].NumSamples) }

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
		lat[id] = float64(f.s.regs[id].LatencyHintMs)
	}
	return tiering.Partition(lat, cfg.NumTiers)
}

// Dispatch pushes the model to every cohort member and spawns one reader
// per connection; when the last response resolves, the results (and their
// byte accounting) are posted back to the clock goroutine. Clients whose
// connection fails mid-round come back Dropped — the live analogue of the
// simulator's unstable clients — and the round proceeds without them.
//
// With a server-side attack regime configured, the deterministic attacker
// subset gets a second payload whose header carries the directive; honest
// members see a directive-free push, so the byte stream they receive is
// identical to an attack-free deployment.
func (f *liveFabric) Dispatch(comm *fl.Comm, cohort []int, now float64, global []float64, lc fl.LocalConfig, deliver func([]fl.TrainResult, error)) {
	spec := PushSpec{
		Round: lc.Round, Epochs: lc.Epochs, Batch: lc.BatchSize, Lambda: lc.Lambda,
		DPClip: lc.DPClip, DPNoise: lc.DPNoise, LRScale: lc.LRScale,
	}
	// The push is encoded once, in place, into a frame buffer borrowed until
	// the sends return; wire is its model message's codec id and precision.
	push, err := codec.AppendModel(beginPush(frames.Get(0), spec), f.s.codec, f.s.cfg.Shapes, global)
	if err != nil {
		frames.Put(push)
		deliver(nil, fmt.Errorf("transport: marshal model: %w", err))
		return
	}
	wire := [2]byte(push[frameHeaderLen+pushHeaderLen:])
	var atkPush []byte
	if len(f.s.attackers) > 0 {
		aspec := spec
		aspec.Attack = uint8(f.s.cfg.Attack.Kind)
		aspec.AttackScale = f.s.cfg.Attack.Scale
		// Same bytes under a directive header — same length as push, so
		// the byte accounting is unchanged.
		atkPush = append(frames.Get(len(push)), push...)
		putPushHeader(atkPush[frameHeaderLen:], aspec)
	}
	downBytes := int64(len(push))

	// Arrivals decode into buffers from the run's weight pool, which the
	// engine's releases after each fold feed; the pool is resolved here, on
	// the engine goroutine, and only Get/Put from the collectors.
	pool := comm.Pool(len(global))

	results := make([]fl.TrainResult, len(cohort))
	upBytes := make([]int64, len(cohort))
	pushed := 0
	var wg sync.WaitGroup
	for i, id := range cohort {
		results[i] = fl.TrainResult{Client: id, Dropped: true, Arrive: now}
		cc := f.s.get(uint32(id))
		if cc == nil {
			continue
		}
		p := push
		if atkPush != nil && f.s.attackers[id] {
			p = atkPush
		}
		if err := cc.send(p); err != nil {
			f.s.drop(cc, err)
			results[i].Arrive = f.Now()
			continue
		}
		pushed++
		cc.inRound = true
		wg.Add(1)
		go func(i int, id int, cc *clientConn) {
			defer wg.Done()
			r, up, err := f.collect(cc, lc.Round, wire, pool)
			if err != nil {
				f.s.drop(cc, err)
				results[i] = fl.TrainResult{Client: id, Dropped: true, Arrive: f.Now()}
				return
			}
			r.Client = id
			results[i] = r
			upBytes[i] = up
		}(i, id, cc)
	}
	frames.Put(push)
	frames.Put(atkPush)

	f.hold()
	go func() {
		defer f.release()
		wg.Wait()
		f.post(func() {
			// Byte accounting happens on the engine goroutine: comm is not
			// safe for concurrent use.
			comm.CountControl(downBytes*int64(pushed), false)
			for _, up := range upBytes {
				comm.CountControl(up, true)
			}
			for _, id := range cohort {
				if cc := f.s.get(uint32(id)); cc != nil {
					cc.inRound = false
				}
			}
			deliver(results, nil)
		})
	}()
}

// collect reads one client's trained response for the given round. The
// round timeout bounds the read so a silent peer cannot stall its round
// (and the shutdown drain) forever; hitting it drops the client like any
// other connection failure, as does a frame longer than the model allows,
// or a model message in any other codec than wire, the push's: a top-k delta
// or a lossier polyline would otherwise fold as if it were the model. The
// frame is held in a borrowed buffer only from its header's arrival until
// the weights are decoded out of it, into a buffer from pool that the result
// carries to the engine.
func (f *liveFabric) collect(cc *clientConn, round uint64, wire [2]byte, pool *tensor.Pool) (fl.TrainResult, int64, error) {
	if err := cc.conn.SetReadDeadline(time.Now().Add(f.s.cfg.RoundTimeout)); err != nil {
		return fl.TrainResult{}, 0, err
	}
	typ, payload, err := readFrame(cc.conn, &cc.rhdr, f.s.limit)
	if err != nil {
		return fl.TrainResult{}, 0, err
	}
	defer frames.Put(payload)
	if typ != MsgModelUpdate {
		return fl.TrainResult{}, 0, fmt.Errorf("transport: client %d sent message type %d mid-round", cc.reg.ClientID, typ)
	}
	_, numSamples, gotRound, model, err := ParseModelUpdate(payload)
	if err != nil {
		return fl.TrainResult{}, 0, err
	}
	if gotRound != round {
		return fl.TrainResult{}, 0, fmt.Errorf("transport: client %d answered round %d, want %d", cc.reg.ClientID, gotRound, round)
	}
	if numSamples == 0 {
		return fl.TrainResult{}, 0, fmt.Errorf("transport: client %d update with zero samples", cc.reg.ClientID)
	}
	if len(model) < 2 || [2]byte(model) != wire {
		return fl.TrainResult{}, 0, fmt.Errorf("transport: client %d update is not in the push's codec", cc.reg.ClientID)
	}
	w := pool.Get()
	if err := codec.UnmarshalModelInto(model, w); err != nil {
		pool.Put(w)
		return fl.TrainResult{}, 0, err
	}
	return fl.TrainResult{
		Weights: w,
		N:       int(numSamples),
		Arrive:  f.Now(),
	}, int64(frameBytes(len(payload))), nil
}

// Probe tallies the control traffic of a bookkeeping sweep (model down,
// small reply up, per client). The live fabric performs no extra network
// round-trip for it — the cost model keeps byte totals comparable with the
// simulator's — and the sweep completes immediately on the wall clock.
func (f *liveFabric) Probe(comm *fl.Comm, ids []int, now float64, w []float64, replyBytes int) (float64, error) {
	if len(ids) == 0 {
		return now, nil
	}
	msg, err := codec.AppendModel(frames.Get(0), f.s.codec, f.s.cfg.Shapes, w)
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
