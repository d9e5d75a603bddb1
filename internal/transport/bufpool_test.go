package transport

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/tensor"
)

// poisonByte is what the tests' frame list fills returned buffers with: it
// is neither a codec wire id nor a polyline character, so a model message
// read out of a returned buffer fails to decode instead of yielding stale
// weights.
const poisonByte = 0x2A

// TestMain turns frame-buffer poisoning on for the whole package: every
// loopback deployment below — including the ones pinned bit-identical to
// the simulator — then doubles as a check that nothing reads a frame after
// returning its buffer (the poison write also makes such a read a data race
// the -race pass reports).
func TestMain(m *testing.M) {
	poison := byte(poisonByte)
	frames.SetPoison(&poison)
	os.Exit(m.Run())
}

// TestFramePoolOwnership pins the frame view of tensor.FreeList as the
// wire path uses it: a frame built by append behind Get(n)[:0], returned
// through a prefix of itself, poisoned across its capacity, recycled as
// the next frame, and dropped when the next frame outgrows it.
func TestFramePoolOwnership(t *testing.T) {
	p := new(tensor.FreeList[byte])
	poison := byte(poisonByte)
	p.SetPoison(&poison)

	buf := append(p.Get(100)[:0], "frame bytes"...)
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

	if got := p.Get(0); cap(got) == 0 || &got[:1][0] != &stale[0] || len(got) != 0 {
		t.Error("Get(0) did not recycle the free buffer as an empty slice")
	}
	p.Put(stale)
	if got := p.Get(4 * cap(stale)); cap(got) < 4*cap(stale) {
		t.Errorf("Get beyond the free buffer's capacity returned %d", cap(got))
	}
	if got := p.Get(0); got != nil {
		t.Error("an undersized buffer stayed in the pool")
	}
	p.Put(nil) // a frame with no payload borrowed nothing
	if got := p.Get(0); got != nil {
		t.Error("Put(nil) joined the pool")
	}
}
