package p

import (
	"testing"

	"fixture/internal/e"
)

func TestTotal(t *testing.T) {
	Square{}.Dead()
	if Total(FooConfig{Unset: 1}) == 0 || e.TestOnly() == 0 {
		t.Fatal("zero total")
	}
}
