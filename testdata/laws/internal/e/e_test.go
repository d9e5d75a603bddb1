package e

import "testing"

func TestSeen(t *testing.T) {
	if NewMeter().seen != 1 {
		t.Fatal("seen not set")
	}
}

// fakeSink is Sink's second implementer, after cmd/app's bin: a fake a
// test substitutes keeps the interface.
type fakeSink struct{ got int }

func (f *fakeSink) Put(n int) { f.got = n }

func TestRunPuts(t *testing.T) {
	var f fakeSink
	if Run(&f).N != f.got {
		t.Fatal("Run did not put its result")
	}
}
