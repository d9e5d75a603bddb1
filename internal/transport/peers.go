package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// registerTimeout bounds how long a fresh connection may take to send its
// register. Registration is serial, so without it one connection that
// opens and says nothing (a port scanner, a half-open socket) would hold
// every peer queued behind it — and the run — forever.
const registerTimeout = 3 * time.Second

// peers is the registry of registered connections a fold-serving loop owns:
// a Server's clients, a RootServer's edges. It accepts registrations with
// ids 0..want-1 until all have arrived, runs one reader per connection,
// hands connections out by id, drops the ones that die, and closes the
// rest at shutdown. Both servers embed one, so the registration rules (what
// is skipped, what is fatal, what a silent peer costs) and the read loop
// exist once; each server supplies only what a frame means to it.
type peers struct {
	ln   net.Listener
	want int
	// role ("server", "root") and kind ("client", "edge") word the log
	// lines and errors.
	role, kind string
	logf       func(format string, args ...any)

	// stopping is set once shutdown has begun: accept stops waiting, and
	// readers that then see connection errors know they are teardown noise.
	stopping atomic.Bool

	mu    sync.Mutex
	conns map[uint32]*clientConn

	// readers are the read loops serve started; a server's Run joins them
	// after shutdown has closed every connection.
	readers sync.WaitGroup
}

func newPeers(ln net.Listener, want int, role, kind string, logf func(string, ...any)) peers {
	return peers{ln: ln, want: want, role: role, kind: kind, logf: logf, conns: map[uint32]*clientConn{}}
}

// accept blocks until want distinct peers have registered, calling
// onRegister (may be nil) for each under the registry lock. Connections
// that never send a valid register — port scanners, protocol mismatches,
// peers silent past registerTimeout — are closed and skipped. A well-formed
// registration with a bad id means the fleet is misconfigured (two peers
// sharing an id, or an id outside 0..want-1): that fails fast instead of
// waiting forever for a distinct id that will never arrive.
func (p *peers) accept(onRegister func(register)) error {
	for {
		n := p.count()
		if n >= p.want {
			return nil
		}
		conn, err := p.ln.Accept()
		if err != nil {
			if p.stopping.Load() {
				return fmt.Errorf("transport: %s shut down during registration (%d/%d %ss)", p.role, n, p.want, p.kind)
			}
			return fmt.Errorf("transport: %s accept: %w", p.role, err)
		}
		conn.SetReadDeadline(time.Now().Add(registerTimeout))
		reg, err := readRegister(conn)
		if err != nil {
			conn.Close()
			continue
		}
		conn.SetReadDeadline(time.Time{})
		if int(reg.clientID) >= p.want {
			conn.Close()
			return fmt.Errorf("transport: %s id %d out of range [0,%d)", p.kind, reg.clientID, p.want)
		}
		p.mu.Lock()
		if _, dup := p.conns[reg.clientID]; dup {
			p.mu.Unlock()
			conn.Close()
			return fmt.Errorf("transport: duplicate %s id %d", p.kind, reg.clientID)
		}
		p.conns[reg.clientID] = &clientConn{reg: reg, conn: conn}
		if onRegister != nil {
			onRegister(reg)
		}
		p.mu.Unlock()
	}
}

// count reports how many peers are currently registered and connected.
func (p *peers) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// get returns the live connection of peer id, nil once it has been dropped.
func (p *peers) get(id uint32) *clientConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns[id]
}

// all snapshots the live connections.
func (p *peers) all() []*clientConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*clientConn, 0, len(p.conns))
	for _, cc := range p.conns {
		out = append(out, cc)
	}
	return out
}

// drop closes and forgets a peer; a second drop of the same peer is a
// no-op. A non-nil err is the reason, logged.
func (p *peers) drop(cc *clientConn, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.conns[cc.reg.clientID]; !ok {
		return
	}
	delete(p.conns, cc.reg.clientID)
	cc.conn.Close()
	if err != nil {
		p.logf("fed %s: dropping %s %d: %v", p.role, p.kind, cc.reg.clientID, err)
	}
}

// serve starts one reader per registered peer, once registration is
// complete. A reader reads frames of at most limit bytes and hands each to
// frame, which owns the payload. The first error, from the read or from
// frame, ends the reader, and gone runs once with it. After shutdown has
// closed the connections every reader ends; readers.Wait joins them.
func (p *peers) serve(limit int, frame func(cc *clientConn, typ byte, payload []byte) error, gone func(cc *clientConn, err error)) {
	for _, cc := range p.all() {
		p.readers.Add(1)
		go func() {
			defer p.readers.Done()
			for {
				typ, payload, err := readFrame(cc.conn, &cc.rhdr, limit)
				if err == nil {
					err = frame(cc, typ, payload)
				}
				if err != nil {
					gone(cc, err)
					return
				}
			}
		}()
	}
}

// interrupt begins shutdown from another goroutine: registration stops
// accepting and every read awaiting a round's update expires immediately,
// so a round waiting on a slow or silent peer resolves. Idle connections
// are unaffected (their readers wait on no deadline) and still receive a
// clean shutdown frame from shutdown. A round armed after this arms nothing
// (see Server.arm), so none can wait out its deadline.
func (p *peers) interrupt() {
	p.stopping.Store(true)
	p.ln.Close()
	now := time.Now()
	for _, cc := range p.all() {
		cc.mu.Lock()
		if cc.round != nil {
			cc.conn.SetReadDeadline(now)
		}
		cc.mu.Unlock()
	}
}

// shutdown sends every remaining peer the shutdown frame and closes it.
func (p *peers) shutdown() {
	p.stopping.Store(true)
	for _, cc := range p.all() {
		if err := cc.sendShutdown(); err != nil {
			p.logf("fed %s: shutdown to %s %d: %v", p.role, p.kind, cc.reg.clientID, err)
		}
		cc.conn.Close()
	}
}
