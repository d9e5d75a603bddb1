package main

import (
	"fixture/internal/e"
	"fixture/p"
)

// bin implements e.Sink without naming it.
type bin struct{ n int }

func (b *bin) Put(n int) { b.n = n }

func main() {
	var b bin
	println(p.Total(p.FooConfig{Read: 1}), e.Run(&b).N, b.n)
}
