package main

import "fixture/p"

func main() { println(p.Total(p.FooConfig{Read: 1})) }
