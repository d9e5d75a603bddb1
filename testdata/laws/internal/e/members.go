package e

import "encoding/json"

// Meter holds the member laws' cases. NewMeter and Label are what cmd/app
// uses; the gate reports Count and Reset, which only e uses, hits, which
// is only written, and seen, which only e's test reads.
type Meter struct {
	Label string
	Count int
	hits  int
	seen  int
}

// NewMeter exercises every case below.
func NewMeter() *Meter {
	m := &Meter{Label: "m", seen: 1}
	m.Reset()
	m.hits++
	sum(&vec{X: 1, Y: 2})
	encode(tick{At: m.Count})
	encode(tock{})
	return m
}

// Reset is called only inside e.
func (m *Meter) Reset() { m.Count = 0 }

// Probe implements cmd/app's prober, which calls it; nothing names it on a
// Meter.
func (m *Meter) Probe() int { return m.Count }

// event reaches json.Marshal only as an interface value, so encoding/json
// reads the exported fields of every type that implements it: tick's At,
// which no code selects, is read.
type event interface{ kind() string }

type tick struct{ At int }

func (tick) kind() string { return "tick" }

type tock struct{}

func (tock) kind() string { return "tock" }

func encode(ev event) []byte {
	b, _ := json.Marshal(ev)
	return append([]byte(ev.kind()), b...)
}

// vec is named by sum's signature, and sum's body is assembly, which reads
// every field of it: X and Y, which no Go code selects, are read.
type vec struct{ X, Y float64 }

func sum(v *vec) float64
