package p

import "testing"

func TestTotal(t *testing.T) {
	Square{}.Dead()
	if Total(FooConfig{Unset: 1}) == 0 {
		t.Fatal("zero total")
	}
}
