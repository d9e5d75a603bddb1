package transport

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/codec"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/tensor"
)

// UplinkConfig configures an edge aggregator's connection to the root.
type UplinkConfig struct {
	// Root is the root server's address.
	Root string
	// EdgeID is this edge's id in the root's 0..K-1 space.
	EdgeID int
	// NumClients is advisory (the root logs it).
	NumClients int
	// TopKFrac enables the top-k delta uplink. The root needs no matching
	// setting: it decodes each push by the codec its message names.
	TopKFrac float64
	// W0 is the initial model (the delta codec's reference base); Shapes
	// its layout. Must match the root's.
	W0     []float64
	Shapes []codec.ShapeInfo
	Logf   func(format string, args ...any)
}

// EdgeUplink connects one edge server's engine to the live root: as an
// fl.Syncer on the engine's observer list it pushes the fresh edge model
// up after each of its folds and rebases the engine onto whatever
// merged model the root has broadcast since. If the root goes away (or a
// write fails, which would desynchronize the shared delta reference), the
// uplink degrades permanently to standalone: the edge keeps serving its
// own clients as a flat server — the hierarchy's graceful-degradation
// contract.
type EdgeUplink struct {
	cfg  UplinkConfig
	conn net.Conn
	wmu  sync.Mutex
	cdc  codec.Codec
	ref  []float64 // shared delta reference, advanced on every sent push
	rhdr [frameHeaderLen]byte

	// Engine-goroutine scratch: the top-k delta and the reconstruction that
	// advances ref.
	delta, recon []float64
	// models recycles adoption buffers between the reader (Get, decode,
	// mailbox) and the engine (rebase from it, Put at the next fold).
	models *tensor.Pool
	lent   []float64 // adoption handed to the engine at the previous fold

	pushes uint64

	mu          sync.Mutex
	adoption    []float64 // latest merged model from the root, nil once taken
	adoptEpoch  int
	members     int
	lastAdopted int
	degraded    bool
}

// DialUplink connects and registers with the root. The reader goroutine it
// starts delivers adoption broadcasts into a mailbox the engine drains at
// its own fold points, so the engine's loop never blocks on the root.
func DialUplink(cfg UplinkConfig) (*EdgeUplink, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if len(cfg.W0) == 0 {
		return nil, fmt.Errorf("transport: uplink needs the initial model")
	}
	conn, err := dialRetry(cfg.Root)
	if err != nil {
		return nil, err
	}
	reg := register{ClientID: uint32(cfg.EdgeID), NumSamples: uint32(cfg.NumClients)}
	if err := WriteFrame(conn, msgRegister, reg.Marshal()); err != nil {
		conn.Close()
		return nil, err
	}
	u := &EdgeUplink{cfg: cfg, conn: conn, cdc: codec.Raw{}}
	if cfg.TopKFrac > 0 {
		u.cdc = &codec.TopK{Frac: cfg.TopKFrac}
	}
	u.ref = append([]float64(nil), cfg.W0...)
	u.models = tensor.NewPool(len(cfg.W0))
	go u.readLoop()
	return u, nil
}

// Close tears the connection down (after the edge engine has finished).
func (u *EdgeUplink) Close() { u.conn.Close() }

// Degraded reports whether the uplink has fallen back to standalone.
func (u *EdgeUplink) Degraded() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.degraded
}

// readLoop fills the adoption mailbox until the root disconnects.
func (u *EdgeUplink) readLoop() {
	limit := frameLimit(u.cfg.Shapes)
	for {
		typ, payload, err := readFrame(u.conn, &u.rhdr, limit)
		if err != nil {
			u.degrade("root connection lost: %v", err)
			return
		}
		switch typ {
		case msgShutdown:
			frames.Put(payload)
			u.degrade("root completed its fold budget")
			return
		case MsgModelPush:
			err := u.receiveAdoption(payload)
			frames.Put(payload)
			if err != nil {
				u.degrade("%v", err)
				return
			}
		default:
			frames.Put(payload)
			u.cfg.Logf("edge uplink %d: unexpected message type %d", u.cfg.EdgeID, typ)
		}
	}
}

// receiveAdoption decodes one adoption push into a pooled model and leaves
// it in the mailbox, recycling an adoption the engine never picked up. The
// root sends each edge's adoptions from whichever edge's reader folded, so
// they can arrive out of epoch order: one no newer than the mailbox's epoch
// is dropped.
func (u *EdgeUplink) receiveAdoption(payload []byte) error {
	spec, modelMsg, err := parseModelPush(payload)
	if err != nil {
		return fmt.Errorf("malformed adoption push: %w", err)
	}
	w := u.models.Get()
	if err := codec.UnmarshalModelInto(modelMsg, w); err != nil {
		u.models.Put(w)
		return fmt.Errorf("adoption model corrupt: %w", err)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if int(spec.Round) <= u.adoptEpoch {
		u.models.Put(w)
		return nil
	}
	u.models.Put(u.adoption)
	u.adoption = w
	u.adoptEpoch = int(spec.Round)
	u.members = spec.Epochs
	return nil
}

func (u *EdgeUplink) degrade(format string, args ...any) {
	u.mu.Lock()
	already := u.degraded
	u.degraded = true
	u.mu.Unlock()
	if !already {
		u.cfg.Logf("edge uplink %d: degrading to standalone: %s", u.cfg.EdgeID, fmt.Sprintf(format, args...))
	}
}

// OnEvent implements fl.Observer; the uplink acts only through AfterFold.
func (u *EdgeUplink) OnEvent(fl.Event) {}

// AfterFold implements fl.Syncer: push the fresh edge model to the root,
// then adopt whatever merged model the root broadcast since the last fold.
// Both halves run on the engine's loop goroutine, so the rebase lands
// between engine steps exactly as in the simulated hierarchy.
func (u *EdgeUplink) AfterFold(f fl.FoldInfo) fl.SyncDirective {
	var d fl.SyncDirective
	if u.Degraded() {
		return d
	}
	// The engine rebased from the previous fold's adoption before it got
	// here again: that buffer is free.
	u.models.Put(u.lent)
	u.lent = nil
	if !u.push(f.Global) {
		return d
	}
	u.mu.Lock()
	if u.adoption != nil && u.adoptEpoch > u.lastAdopted {
		staleness := float64(u.adoptEpoch - u.lastAdopted - 1)
		d.Rebase = u.adoption
		d.Events = append(d.Events, fl.EdgeFoldEvent{
			Edge:      u.cfg.EdgeID,
			Round:     u.adoptEpoch,
			Time:      f.Time,
			Staleness: staleness,
			Members:   u.members,
		})
		u.lastAdopted = u.adoptEpoch
		u.lent, u.adoption = u.adoption, nil
	}
	u.mu.Unlock()
	return d
}

// push sends the edge model to the root in a frame built in place in a
// borrowed buffer, then advances the shared reference exactly as the root
// reconstructs it. It reports false after degrading.
func (u *EdgeUplink) push(global []float64) bool {
	frame, err := u.pushFrame(frames.Get(0), global)
	frames.Put(frame)
	if err != nil {
		u.degrade("%v", err)
		return false
	}
	return true
}

func (u *EdgeUplink) pushFrame(frame []byte, global []float64) ([]byte, error) {
	frame = appendUpdateHeader(beginFrame(frame, MsgModelUpdate), uint32(u.cfg.EdgeID), 0, u.pushes+1)
	msgAt := len(frame)
	var err error
	frame, u.delta, err = edge.AppendUplink(frame, u.cdc, u.cfg.Shapes, u.ref, global, u.delta)
	if err != nil {
		return frame, fmt.Errorf("encode push: %w", err)
	}
	u.pushes++
	u.wmu.Lock()
	err = writeFrame(u.conn, frame)
	u.wmu.Unlock()
	if err != nil {
		// An unsent push must not advance the shared reference — the
		// root never saw it, so continuing would corrupt every later
		// delta. Degrade instead.
		return frame, fmt.Errorf("push write: %w", err)
	}
	u.recon = tensor.EnsureVec(u.recon, len(u.ref))
	if err := edge.DecodeUplinkInto(frame[msgAt:], u.ref, u.recon); err != nil {
		return frame, fmt.Errorf("reference advance: %w", err)
	}
	return frame, nil
}
