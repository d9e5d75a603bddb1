package main

import (
	"fixture/internal/e"
	"fixture/p"
)

// bin implements e.Sink without naming it.
type bin struct{ n int }

func (b *bin) Put(n int) { b.n = n }

// prober is implemented by *e.Meter, whose Probe no code calls by name.
type prober interface{ Probe() int }

func main() {
	var b bin
	m := e.NewMeter()
	var pr prober = m
	println(p.Total(p.FooConfig{Read: 1}), e.Run(&b).N, b.n, pr.Probe(), m.Label, e.Sum())
}
