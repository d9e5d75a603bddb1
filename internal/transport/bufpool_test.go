package transport

import (
	"bytes"
	"os"
	"testing"
)

// TestMain turns frame-buffer poisoning on for the whole package: every
// loopback deployment below — including the ones pinned bit-identical to
// the simulator — then doubles as a check that nothing reads a frame after
// returning its buffer (the poison write also makes such a read a data race
// the -race pass reports).
func TestMain(m *testing.M) {
	frames.SetPoison(true)
	os.Exit(m.Run())
}

func TestFramePoolOwnership(t *testing.T) {
	p := &framePool{inPool: make(map[*byte]struct{})}
	p.SetPoison(true)

	buf := append(p.Get(100), "frame bytes"...)
	if cap(buf) < 100 {
		t.Fatalf("Get(100) returned capacity %d", cap(buf))
	}
	stale := buf
	p.Put(buf[:4]) // any slice sharing the buffer's start returns all of it
	if !bytes.Equal(stale, bytes.Repeat([]byte{poisonByte}, len(stale))) {
		t.Fatalf("returned buffer not poisoned: %q", stale)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Put of the same buffer did not panic")
			}
		}()
		p.Put(stale)
	}()

	if got := p.Get(50); &got[:1][0] != &stale[0] || len(got) != 0 {
		t.Error("Get did not recycle the free buffer as an empty slice")
	}
	p.Put(stale)
	if got := p.Get(4 * cap(stale)); cap(got) < 4*cap(stale) {
		t.Errorf("Get beyond the free buffer's capacity returned %d", cap(got))
	}
	if len(p.free) != 0 {
		t.Error("an undersized buffer stayed in the pool")
	}
	p.Put(nil) // a frame with no payload borrowed nothing

	for i := 0; i < framePoolCap+10; i++ {
		p.Put(make([]byte, 8))
	}
	if len(p.free) != framePoolCap {
		t.Errorf("free list holds %d buffers, bound is %d", len(p.free), framePoolCap)
	}
}
