package e

// shape has three implementers. Sum calls area through it; nothing calls
// name: the gate reports shape.name.
type shape interface {
	area() float64
	name() string
}

// cornered is a marker: nothing calls corners, but Sum's type assertion
// names cornered, so the method marks a capability and stays.
type cornered interface{ corners() int }

// solver has one implementer, gradient: the gate reports solver. Nothing
// calls step through solver, but Sum calls it on a gradient, which keeps it.
type solver interface{ step(x float64) float64 }

var _ solver = gradient{}

type circle struct{ r float64 }

func (c circle) area() float64 { return 3 * c.r * c.r }
func (circle) name() string    { return "circle" }

type rect struct{ w, h float64 }

func (r rect) area() float64 { return r.w * r.h }
func (rect) name() string    { return "rect" }
func (rect) corners() int    { return 4 }

type square struct{ s float64 }

func (q square) area() float64 { return q.s * q.s }
func (square) name() string    { return "square" }
func (square) corners() int    { return 4 }

type gradient struct{ lr float64 }

func (g gradient) step(x float64) float64 { return x - g.lr*x }

// Sum reaches every case above.
func Sum() float64 {
	total := gradient{lr: 0.5}.step(2)
	for _, s := range []shape{circle{1}, rect{2, 3}, square{2}} {
		if _, ok := s.(cornered); ok {
			total += s.area()
		}
	}
	return total + float64(tally())
}

// tally declares its types inside its body, where the member laws reach
// them too: the gate reports span.Start, which no other package selects,
// and span.end, which is only written, but not key's fields, which the
// map hashes and compares on every lookup.
func tally() int {
	type key struct{ a, b int }
	type span struct{ Start, end int }
	seen := map[key]bool{{1, 2}: true}
	s := span{Start: 1}
	s.end = 2
	return len(seen) + s.Start
}
