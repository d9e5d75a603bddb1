package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/robust"
	"repro/internal/simnet"
)

// ServerConfig configures a federated aggregation server. The server is a
// thin adapter: which method runs — FedAT, any baseline, any composed
// variant — is entirely the Method/Run pair, executed by the internal/fl
// policy engine over the live fabric.
type ServerConfig struct {
	// Addr to listen on, e.g. "127.0.0.1:7070". Use port 0 for an
	// ephemeral port (Server.Addr reports the bound address).
	Addr string
	// NumClients registrations to wait for before training starts.
	// Clients must register with ids 0..NumClients-1 (the engine's client
	// identity space); out-of-range or duplicate ids are rejected.
	NumClients int
	// Method is the policy composition to run; zero value means the
	// registry's fedat.
	Method fl.Method
	// Run is the engine configuration (Rounds, ClientsPerRound, NumTiers,
	// LocalEpochs, BatchSize, Lambda, Seed, …). Run.Codec is also the wire
	// compression codec; nil defaults to polyline precision 4, the
	// paper's deployment configuration.
	Run fl.RunConfig
	// Shapes describe the model's parameter blocks.
	Shapes []codec.ShapeInfo
	// W0 is the initial global model.
	W0 []float64
	// Dataset labels the run record.
	Dataset string
	// Eval optionally evaluates the global model server-side against a
	// mirrored federation (cmd/fedserver derives one from the shared
	// seed). Without it the run record carries no accuracy points, and
	// TiFL's accuracy-driven selection degrades to credit-only behavior.
	Eval *fl.Evaluator
	// Observers subscribe to the engine's run event stream alongside the
	// built-in Recorder. The edge role of a hierarchy attaches its cloud
	// uplink here — an fl.Syncer rides the observer list, so the engine
	// pushes to (and rebases from) the root after its own folds.
	Observers []fl.Observer
	// Attack, with AttackFrac > 0, directs a deterministic subset of the
	// population to run the given attack during local training — the live
	// fabric's version of the simulator's adversarial behavior regime.
	// Membership is simnet.AttackTargets over Run.Seed, so a simulation and
	// a deployment sharing a seed poison the same client ids. Honest cohort
	// members receive a directive-free push.
	Attack     robust.Attack
	AttackFrac float64
	// RoundTimeout bounds how long the server waits for one client's
	// response to a model push before dropping it — without it a silent
	// peer (half-open connection, stopped process) would stall its round
	// and the final drain forever. 0 means the 5-minute default; negative
	// is rejected.
	RoundTimeout time.Duration
	// Logf receives progress lines; nil silences logging.
	Logf func(format string, args ...any)
}

// Server drives the method engine over live TCP connections.
type Server struct {
	peers // the registered clients; its mu also guards fab
	cfg   ServerConfig
	codec codec.Codec

	fab  *liveFabric
	regs []register // by client id; survives disconnects

	// limit is the longest frame a registered client may announce (see
	// frameLimit).
	limit int

	// attackers is the deterministic adversary subset (nil when the attack
	// regime is off); fixed at construction, read-only afterwards.
	attackers map[int]bool
}

type clientConn struct {
	reg  register
	conn net.Conn
	wmu  sync.Mutex
	// rhdr is readFrame's header scratch, used only by the connection's
	// reader (see peers.serve).
	rhdr [frameHeaderLen]byte
	// inRound marks a client between a push and the delivery of its round.
	// Engine goroutine only. Such a client is not Available: a second push
	// (a runtime retier can migrate it into another tier's cohort mid-round)
	// would arm a second round on a connection that answers one at a time.
	inRound bool

	// mu guards the round the reader answers next and whether the reader is
	// gone: a Dispatch arms a round under it (Server.arm), the reader takes
	// the round when its update arrives or when it exits.
	mu     sync.Mutex
	round  *liveRound // awaiting this peer's update; nil when none is pending
	slot   int        // this peer's index in round's results
	closed bool       // the reader has exited; arming fails
}

// send writes one frame built behind beginFrame; a mutex serializes writers
// (the engine's dispatch and the final shutdown broadcast) so frames never
// interleave.
func (cc *clientConn) send(frame []byte) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return writeFrame(cc.conn, frame)
}

// sendShutdown writes the empty shutdown frame.
func (cc *clientConn) sendShutdown() error {
	var frame [frameHeaderLen]byte
	return cc.send(beginFrame(frame[:0], msgShutdown))
}

// readRegister reads and parses the hello a fresh connection must open
// with; anything else — including a frame longer than a register — is an
// error.
func readRegister(conn net.Conn) (register, error) {
	var hdr [frameHeaderLen]byte
	typ, payload, err := readFrame(conn, &hdr, registerLimit)
	if err != nil {
		return register{}, err
	}
	defer frames.Put(payload)
	if typ != msgRegister {
		return register{}, fmt.Errorf("transport: message type %d before registration", typ)
	}
	return parseRegister(payload)
}

// NewServer binds the listener; call Run to serve.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.NumClients <= 0 {
		return nil, fmt.Errorf("transport: NumClients must be positive")
	}
	// Rounds and NumTiers have engine defaults, but a live deployment
	// should not start 100 rounds against real clients because of a typo:
	// require them explicitly, and fail tier-count mistakes before
	// clients connect rather than after registration.
	if cfg.Run.Rounds <= 0 || cfg.Run.NumTiers <= 0 {
		return nil, fmt.Errorf("transport: Run.Rounds and Run.NumTiers must be positive")
	}
	if cfg.Run.NumTiers > cfg.NumClients {
		return nil, fmt.Errorf("transport: more tiers than clients")
	}
	if len(cfg.W0) == 0 {
		return nil, fmt.Errorf("transport: empty initial model")
	}
	if cfg.RoundTimeout < 0 {
		return nil, fmt.Errorf("transport: negative RoundTimeout %v", cfg.RoundTimeout)
	}
	if cfg.Method.Name == "" {
		cfg.Method = fl.Methods["fedat"]
	}
	if cfg.Run.Codec == nil {
		cfg.Run.Codec = codec.NewPolyline(4)
	}
	if cfg.RoundTimeout == 0 {
		cfg.RoundTimeout = 5 * time.Minute
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	var attackers map[int]bool
	if cfg.Attack.Active() && cfg.AttackFrac > 0 {
		attackers = make(map[int]bool)
		for _, id := range simnet.AttackTargets(cfg.Run.Seed, cfg.NumClients, cfg.AttackFrac) {
			attackers[id] = true
		}
		cfg.Logf("fed server: attack regime %s on %d/%d clients", cfg.Attack.Kind, len(attackers), cfg.NumClients)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	return &Server{
		peers:     newPeers(ln, cfg.NumClients, "server", "client", cfg.Logf),
		cfg:       cfg,
		codec:     cfg.Run.Codec,
		regs:      make([]register, cfg.NumClients),
		limit:     frameLimit(cfg.Shapes),
		attackers: attackers,
	}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Run accepts registrations, then hands the loop to the method engine over
// the live fabric: the engine selects cohorts, this server ships them the
// model and folds what comes back, exactly as the simulator does. It
// returns the run record and the final global model.
func (s *Server) Run() (*metrics.Run, []float64, error) {
	defer s.ln.Close()
	err := s.accept(func(reg register) {
		s.regs[reg.clientID] = reg
		s.cfg.Logf("fed server: client %d registered (%d samples, %dms hint)", reg.clientID, reg.numSamples, reg.latencyHintMs)
	})
	if err != nil {
		s.shutdown()
		return nil, nil, err
	}
	s.cfg.Logf("fed server: %d clients registered; running %s (%s) for %d global updates",
		s.cfg.NumClients, s.cfg.Method.Name, s.cfg.Method, s.cfg.Run.Rounds)

	s.serve(s.limit, s.answer, s.hangUp)
	fab := &liveFabric{rtClock: newRTClock(), s: s}
	s.mu.Lock()
	s.fab = fab
	s.mu.Unlock()
	if s.stopping.Load() { // Shutdown raced registration
		fab.Stop()
	}

	// The final model is the last fold's global snapshot (copied: some
	// update rules reuse the event's buffer).
	final := fab.InitialWeights()
	capture := fl.ObserverFunc(func(ev fl.Event) {
		if e, ok := ev.(fl.TierFoldEvent); ok {
			final = append(final[:0], e.Global...)
		}
	})

	obs := append([]fl.Observer{capture}, s.cfg.Observers...)
	run, err := s.cfg.Method.RunOn(fab, s.cfg.Run, obs...)
	// Let the rounds still in flight resolve before connections close, so
	// their clients are idle and get a clean shutdown frame; closing the
	// connections then ends every reader.
	fab.drain()
	s.shutdown()
	s.readers.Wait()
	if err != nil {
		return nil, nil, err
	}
	return run, final, nil
}

// Shutdown stops the server from another goroutine: the engine loop halts
// after its current callback, registration stops accepting, reads awaiting
// a round's update are interrupted (clients mid-round are dropped rather
// than waited for, so Run's drain cannot stall behind a slow or silent
// peer), and Run proceeds to notify the remaining registered clients.
func (s *Server) Shutdown() {
	s.interrupt()
	s.mu.Lock()
	if s.fab != nil {
		s.fab.Stop()
	}
	s.mu.Unlock()
}
