package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/metrics"
)

// RootConfig configures the cloud tier of a live hierarchy: the root
// accepts K edge aggregators (each a full fedserver running the method
// engine over its own clients), folds their pushed models with the same
// edge.Cloud state machine the simulator uses, and broadcasts the merged
// model back for adoption.
type RootConfig struct {
	// Addr to listen on; port 0 binds an ephemeral port (see Addr).
	Addr string
	// Rounds is the cloud fold budget: after this many cloud folds the root
	// shuts the hierarchy down. 0 runs until every edge departs.
	Rounds int
	// Cloud is the edge→cloud policy, handed to edge.NewCloud as is. Edge
	// aggregators register with ids 0..Cloud.Edges-1. The root does not read
	// TopKFrac: it decodes each push by the codec its model message names,
	// so each edge picks its own -uplink-topk. W0 and Shapes must match the
	// edges' (both derive from the shared seed).
	Cloud edge.CloudConfig
	Logf  func(format string, args ...any)
}

// RootServer drives the cloud fold loop over live edge connections. Unlike
// Server it runs no method engine — the engines run on the edges; the root
// is the edge.Cloud overlay plus a wire.
type RootServer struct {
	peers    // the registered edges
	cfg      RootConfig
	cloud    *edge.Cloud
	start    time.Time
	done     chan struct{}
	stopOnce sync.Once
}

// NewRoot binds the listener; call Run to serve.
func NewRoot(cfg RootConfig) (*RootServer, error) {
	if cfg.Cloud.Edges <= 0 {
		return nil, fmt.Errorf("transport: root needs at least one edge")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cloud, err := edge.NewCloud(cfg.Cloud)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("transport: root listen: %w", err)
	}
	return &RootServer{
		peers: newPeers(ln, cfg.Cloud.Edges, "root", "edge", cfg.Logf),
		cfg:   cfg,
		cloud: cloud,
		done:  make(chan struct{}),
	}, nil
}

// Addr returns the bound listen address.
func (r *RootServer) Addr() string { return r.ln.Addr().String() }

// now is the root's timeline: wall seconds since Run started.
func (r *RootServer) now() float64 { return time.Since(r.start).Seconds() }

// Run accepts the K edge registrations, then folds pushes until the cloud
// round budget is met or every edge has departed. It returns the cloud run
// record and the final merged model.
func (r *RootServer) Run() (*metrics.Run, []float64, error) {
	defer r.ln.Close()
	r.start = time.Now()
	err := r.accept(func(reg register) {
		r.cfg.Logf("fed root: edge %d registered (%d clients)", reg.ClientID, reg.NumSamples)
	})
	if err != nil {
		r.shutdown()
		return nil, nil, err
	}
	r.cfg.Logf("fed root: %d edges registered; folding %s (budget %d)", r.cfg.Cloud.Edges, r.cloudFold(), r.cfg.Rounds)

	var wg sync.WaitGroup
	for _, ec := range r.all() {
		wg.Add(1)
		go func(ec *clientConn) {
			defer wg.Done()
			r.serveEdge(ec)
		}(ec)
	}

	<-r.done
	r.shutdown()
	wg.Wait()
	return r.cloud.Record(), r.cloud.Global(), nil
}

func (r *RootServer) cloudFold() string {
	if r.cfg.Cloud.Fold == "" {
		return edge.FoldSync
	}
	return r.cfg.Cloud.Fold
}

// Shutdown stops the root from another goroutine.
func (r *RootServer) Shutdown() {
	r.finish()
	r.interrupt()
}

func (r *RootServer) finish() {
	// Stop before signalling: readers that hit connection errors during
	// teardown must not retire edges (which could mutate the record with a
	// post-budget fold).
	r.stopping.Store(true)
	r.stopOnce.Do(func() { close(r.done) })
}

// serveEdge reads one edge's pushes until its connection dies, it sends a
// frame the cloud cannot fold, or the run ends. Either way the edge retires
// from the fold barrier and the survivors keep folding (a retirement that
// completes the sync barrier folds inside Retire): a kept edge whose pushes
// never fold would stall a sync cloud forever.
func (r *RootServer) serveEdge(ec *clientConn) {
	id := int(ec.reg.ClientID)
	limit := frameLimit(r.cfg.Cloud.Shapes)
	for {
		typ, payload, err := readFrame(ec.conn, &ec.rhdr, limit)
		if err == nil {
			err = r.edgePush(id, typ, payload)
			frames.Put(payload) // PushWire decoded the model into the cloud's own state
		}
		if err == nil {
			continue
		}
		if !r.stopping.Load() {
			r.cfg.Logf("fed root: edge %d departed: %v", id, err)
			before := r.cloud.Epoch()
			r.cloud.Retire(id, r.now())
			r.drop(ec, nil)
			if r.cloud.Epoch() > before {
				// Its departure completed the barrier: the survivors' fold
				// happened inside Retire; broadcast it.
				r.broadcastAdoption()
			}
			r.checkFinished()
		}
		return
	}
}

// edgePush folds one frame from edge id into the cloud and broadcasts the
// merged model if that completed a fold. A frame that is not a well-formed
// update from edge id, or that the cloud rejects, is an error.
func (r *RootServer) edgePush(id int, typ byte, payload []byte) error {
	if typ != MsgModelUpdate {
		return fmt.Errorf("unexpected message type %d", typ)
	}
	edgeID, _, _, model, err := ParseModelUpdate(payload)
	if err == nil && int(edgeID) != id {
		err = fmt.Errorf("update names edge %d", edgeID)
	}
	if err != nil {
		return err
	}
	ev, folded, err := r.cloud.PushWire(id, model, r.now())
	if err != nil {
		return fmt.Errorf("push rejected: %w", err)
	}
	if folded {
		r.cfg.Logf("%s", fl.TraceLine(-1, ev))
		r.broadcastAdoption()
		r.checkFinished()
	}
	return nil
}

// broadcastAdoption offers every connected edge the merged model it has
// not yet adopted. Adoption rides MsgModelPush with the cloud epoch as the
// round — the edge's uplink uses it to stamp staleness.
func (r *RootServer) broadcastAdoption() {
	for _, ec := range r.all() {
		w, epoch, ok := r.cloud.Adopt(int(ec.reg.ClientID))
		if !ok {
			continue
		}
		spec := PushSpec{Round: uint64(epoch), Epochs: r.cloud.Live()}
		push, err := codec.AppendModel(beginPush(frames.Get(0), spec), codec.Raw{}, r.cfg.Cloud.Shapes, w)
		if err == nil {
			err = ec.send(push)
		}
		frames.Put(push)
		if err != nil {
			r.cfg.Logf("fed root: adoption to edge %d: %v", ec.reg.ClientID, err)
		}
	}
}

// checkFinished ends the run when the fold budget is met or no edge is
// left.
func (r *RootServer) checkFinished() {
	if r.cfg.Rounds > 0 && r.cloud.Epoch() >= r.cfg.Rounds {
		r.finish()
		return
	}
	if r.cloud.Live() == 0 {
		r.finish()
	}
}
