// Package p holds one declaration per case the deletion-law gate must tell
// apart; TestDeletionLawsFixture lists what it reports.
package p

// Shape is the interface Square reaches its callers through.
type Shape interface{ Area() float64 }

// Square is converted to Shape and never called directly.
type Square struct{ Side float64 }

// Area is called only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Dead has no caller: the gate reports it.
func (s Square) Dead() {}

// Labelled is implemented by Tile only, through base's promoted Perimeter.
type Labelled interface {
	Perimeter() float64
	Label() string
}

type base struct{}

func (base) Perimeter() float64 { return 4 }

// Tile embeds base.
type Tile struct{ base }

func (Tile) Label() string { return "tile" }

// FooConfig's Unset is read here but set only in p_test.go, and Defaulted
// is written only where it is still zero: the gate reports both.
type FooConfig struct {
	Read      int
	Unset     int
	Defaulted int
}

// Stack is generic: Push is called through an instance, Drop has no caller
// and the gate reports it without the type parameter.
type Stack[E any] struct{ items []E }

func (s *Stack[E]) Push(v E) { s.items = append(s.items, v) }

func (s *Stack[E]) Drop() {}

// armOnly is called only from p_arm64.go.
func armOnly() int { return 2 }

// Total reads every case above.
func Total(cfg FooConfig) float64 {
	if cfg.Defaulted == 0 {
		cfg.Defaulted = 3
	}
	var l Labelled = Tile{}
	var st Stack[int]
	st.Push(1)
	sum := float64(cfg.Read+cfg.Unset+cfg.Defaulted+kernel()) + l.Perimeter() + float64(len(l.Label()))
	for _, s := range []Shape{Square{Side: 2}} {
		sum += s.Area()
	}
	return sum
}
