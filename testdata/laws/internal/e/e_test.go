package e

import "testing"

func TestSeen(t *testing.T) {
	if NewMeter().seen != 1 {
		t.Fatal("seen not set")
	}
}
