package cli

import (
	"bytes"
	"context"
	"io"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The live rows run servers, edges and clients in-process on 127.0.0.1:0
// and read each server's bound address from its log.

var listening = regexp.MustCompile(`listening on (\S+) for`)

// logBuf is a log writer the process under test and the test share.
type logBuf struct {
	mu      sync.Mutex
	b       strings.Builder
	written chan struct{} // closed by the next Write
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.written != nil {
		close(l.written)
		l.written = nil
	}
	return l.b.Write(p)
}

// next returns the log so far and a channel the next Write closes.
func (l *logBuf) next() (string, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.written == nil {
		l.written = make(chan struct{})
	}
	return l.b.String(), l.written
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// proc is one server or client running in its own goroutine. out is read
// only after done is closed.
type proc struct {
	name string
	out  bytes.Buffer
	log  logBuf
	done chan struct{}
	code int
}

func start(name string, run func(stdout, stderr io.Writer) int) *proc {
	p := &proc{name: name, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.code = run(&p.out, &p.log)
	}()
	return p
}

func startServer(ctx context.Context, name string, args ...string) *proc {
	return start(name, func(o, e io.Writer) int { return Server(ctx, args, o, e) })
}

func startClient(name string, args ...string) *proc {
	return start(name, func(o, e io.Writer) int { return Client(args, o, e) })
}

// await returns re's submatches in the log once it appears. It fails the
// test if the process exits first or 30 s pass.
func (p *proc) await(t *testing.T, re *regexp.Regexp) []string {
	t.Helper()
	timeout := time.After(30 * time.Second)
	for {
		log, written := p.log.next()
		if m := re.FindStringSubmatch(log); m != nil {
			return m
		}
		select {
		case <-written:
		case <-p.done:
			if m := re.FindStringSubmatch(p.log.String()); m != nil {
				return m
			}
			t.Fatalf("%s exited %d before logging %q:\n%s", p.name, p.code, re, p.log.String())
		case <-timeout:
			t.Fatalf("%s never logged %q:\n%s", p.name, re, p.log.String())
		}
	}
}

// wait fails the test unless the process exits with want within timeout.
func (p *proc) wait(t *testing.T, timeout time.Duration, want int) {
	t.Helper()
	select {
	case <-p.done:
		if p.code != want {
			t.Fatalf("%s exited %d, want %d:\n%s", p.name, p.code, want, p.log.String())
		}
	case <-time.After(timeout):
		t.Fatalf("%s still running after %v:\n%s", p.name, timeout, p.log.String())
	}
}

// TestServerUsageErrors: a bad role, edge→cloud flags on a flat server and
// an unknown rule fail before the server listens — the first three as
// usage errors, found right after parsing.
func TestServerUsageErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"unknown role", []string{"-role", "bogus"}, 2},
		{"edge without root", []string{"-role", "edge"}, 2},
		{"cloud flags on a flat server", []string{"-role", "flat", "-uplink-topk", "0.25", "-edge-fold", "async"}, 2},
		{"edge-stale-exp on a flat server", []string{"-edge-stale-exp", "0.5"}, 2},
		{"unknown agg rule", []string{"-agg", "bogus"}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv := startServer(ctx, "server", append(c.args, "-addr", "127.0.0.1:0")...)
			srv.wait(t, time.Minute, c.want)
			if listening.MatchString(srv.log.String()) {
				t.Fatalf("listened before failing:\n%s", srv.log.String())
			}
		})
	}
}

// TestClientRemovedFlags: the push is a client's only orders, so the
// removed local overrides are unknown flags.
func TestClientRemovedFlags(t *testing.T) {
	for _, f := range [][]string{{"-attack", "scale"}, {"-uplink-topk", "0.1"}} {
		if code := Client(append(f, "-addr", "127.0.0.1:1"), io.Discard, io.Discard); code != 2 {
			t.Errorf("fedclient %v exited %d, want 2", f, code)
		}
	}
}

// flatRun serves one flat loopback deployment — a server and three clients
// with spread latency hints — and returns the server.
func flatRun(t *testing.T, extra ...string) *proc {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-clients", "3", "-tiers", "2", "-rounds", "3", "-k", "2", "-seed", "1"}, extra...)
	srv := startServer(context.Background(), "server", args...)
	addr := srv.await(t, listening)[1]
	var clients []*proc
	for i := range 3 {
		clients = append(clients, startClient("client "+strconv.Itoa(i),
			"-addr", addr, "-id", strconv.Itoa(i), "-clients", "3", "-seed", "1", "-latency", strconv.Itoa(100+i*300)))
	}
	srv.wait(t, time.Minute, 0)
	for _, c := range clients {
		c.wait(t, time.Minute, 0)
	}
	if !strings.Contains(srv.out.String(), "; test accuracy ") {
		t.Fatalf("no closing summary on stdout:\n%s", srv.out.String())
	}
	return srv
}

// TestLoopback: the policy engine over real TCP, for a synchronous method,
// FedAT's asynchronous tiers, FedAT re-tiering from measured latencies, the
// staleness family with the adaptive LR riding the push, and the
// explicit-zero law on the live side (-lambda 0 is no proximal term). Each
// server's logged trace opens with a start line and closes with an end
// line whose Round is the update count the server prints.
func TestLoopback(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		log  string // a line the server must log
	}{
		{"fedavg", []string{"-method", "fedavg"}, ""},
		{"fedat", []string{"-method", "fedat"}, ""},
		{"fedat re-tiering", []string{"-method", "fedat", "-retier-every", "2"}, `"Kind":"retier"`},
		{"fedasync through fedbuff", []string{"-method", "fedasync", "-pacer", "fedbuff", "-agg", "fedasync", "-buffer-k", "2", "-adaptive-lr"}, ""},
		{"fedat without lambda", []string{"-method", "fedat", "-lambda", "0"}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			srv := flatRun(t, c.args...)
			if !strings.Contains(srv.log.String(), c.log) {
				t.Fatalf("server never logged %q:\n%s", c.log, srv.log.String())
			}
			// The log is the run's record: -report reads it back, and its
			// update count is the one the server printed.
			checkReport(t, srv, 0)
		})
	}
}

// TestServerShutdownOnCancel: cancelling the server's context mid-registration
// (what SIGINT does to cmd/fedserver) sends the one registered client the
// shutdown frame; the server returns promptly and the client exits 0.
func TestServerShutdownOnCancel(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := startServer(ctx, "server", "-addr", "127.0.0.1:0", "-clients", "3", "-tiers", "2", "-rounds", "3", "-k", "2", "-seed", "1")
	addr := srv.await(t, listening)[1]
	client := startClient("client 0", "-addr", addr, "-id", "0", "-clients", "3", "-seed", "1")
	srv.await(t, regexp.MustCompile(`client 0 registered`))
	cancel()
	srv.wait(t, 5*time.Second, 1)
	client.wait(t, time.Minute, 0)
	if !strings.Contains(client.log.String(), "client 0: shutdown") {
		t.Fatalf("client did not log the shutdown:\n%s", client.log.String())
	}
}

// TestHierarchyLoopback: a root folds two edge servers, each running FedAT
// with runtime re-tiering over two clients of its own data shard.
func TestHierarchyLoopback(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	root := startServer(ctx, "root", "-role", "root", "-addr", "127.0.0.1:0", "-edges", "2", "-rounds", "0",
		"-edge-fold", "sync", "-clients", "4", "-seed", "1")
	rootAddr := root.await(t, listening)[1]
	var edges, clients []*proc
	for e := range 2 {
		edges = append(edges, startServer(ctx, "edge "+strconv.Itoa(e), "-role", "edge", "-edge-id", strconv.Itoa(e),
			"-root", rootAddr, "-addr", "127.0.0.1:0", "-method", "fedat", "-clients", "2", "-tiers", "2",
			"-rounds", "4", "-k", "1", "-retier-every", "2", "-seed", "1", "-data-seed", strconv.Itoa(e+1)))
	}
	for e, edge := range edges {
		addr := edge.await(t, listening)[1]
		for i := range 2 {
			clients = append(clients, startClient("client "+strconv.Itoa(i)+" of edge "+strconv.Itoa(e),
				"-addr", addr, "-id", strconv.Itoa(i), "-clients", "2", "-seed", "1",
				"-data-seed", strconv.Itoa(e+1), "-latency", strconv.Itoa(100+i*300)))
		}
	}
	for _, p := range append(edges, clients...) {
		p.wait(t, time.Minute, 0)
	}
	root.wait(t, time.Minute, 0)
	if !strings.Contains(root.out.String(), "fedserver: root done after ") {
		t.Errorf("root printed no summary:\n%s", root.out.String())
	}
	if !strings.Contains(edges[0].log.String(), `"Kind":"retier"`) {
		t.Errorf("edge 0 never re-tiered:\n%s", edges[0].log.String())
	}
	if !strings.Contains(root.log.String(), `{"Node":-1,"Kind":"edgefold",`) {
		t.Errorf("root logged no cloud fold:\n%s", root.log.String())
	}
	for e, edge := range edges {
		if !strings.Contains(edge.out.String(), "; test accuracy ") {
			t.Errorf("%s printed no summary:\n%s", edge.name, edge.out.String())
		}
		// Every trace line an edge logs carries its own id.
		checkReport(t, edge, e)
	}
}

var reportUpdates = regexp.MustCompile(`^node (-?\d+): .*\nglobal updates +(\d+)\n`)

// checkReport runs fedsim -report on a flat or edge server's log. The log
// must hold one node's run, the given node, and the update count the
// report reads must be the one the server printed.
func checkReport(t *testing.T, srv *proc, node int) {
	t.Helper()
	out := readReport(t, srv.log.String())
	m := reportUpdates.FindStringSubmatch(out)
	if m == nil || m[1] != strconv.Itoa(node) || strings.Count(out, "\nglobal updates ") != 1 {
		t.Fatalf("%s: -report on the log printed\n%s\nwant node %d's summary alone", srv.name, out, node)
	}
	if want := " done after " + m[2] + " global updates;"; !strings.Contains(srv.out.String(), want) {
		t.Errorf("%s: -report reads %s updates, but stdout does not say%s:\n%s", srv.name, m[2], want, srv.out.String())
	}
}
