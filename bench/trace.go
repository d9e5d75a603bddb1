package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/fl"
	"repro/internal/tiering"
)

// span is one traced interval at a layer boundary. Parent is the index of
// the span that caused it (-1 for the run's root); all spans of one traced
// run share Run.
type span struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	Parent  int     `json:"parent"`
	Run     string  `json:"run"`
}

// tracer records the benchmark's own spans around the calls into each layer.
// It is used from the engine goroutine only. Spans stay in memory until
// writeFile.
//
// On the simulated fabrics the spans come from a wrapping fl.Fabric, on the
// engine's own boundary: run → fl.dispatch → fl.deliver, run → fl.evaluate,
// run → fl.partition, run → fl.probe. The live fabric is private to
// internal/transport and cannot be wrapped, so there the spans are cut from
// the event stream on the server's clock: run → fl.round →
// transport.push_to_arrival / transport.arrival_to_fold, and run →
// fl.evaluate (the gap between a fold and its evaluation event).
type tracer struct {
	run   string
	t0    time.Time
	spans []span

	// Live: the open round span of each tier, and the last fold's time.
	openRound map[int]int
	lastFold  float64
}

const rootSpan = 0

func newTracer(run string) *tracer {
	return &tracer{
		run: run, t0: time.Now(),
		spans:     []span{{Name: "run", Parent: -1, Run: run}},
		openRound: map[int]int{},
	}
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / 1e6 }

// open starts a span and returns its index.
func (t *tracer) open(name string, parent int, start float64) int {
	t.spans = append(t.spans, span{Name: name, StartMs: start, EndMs: start, Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

// closeRoot ends the run span.
func (t *tracer) closeRoot(end float64) { t.spans[rootSpan].EndMs = end }

// wrap returns fab with every engine-facing call timed.
func (t *tracer) wrap(fab fl.Fabric) fl.Fabric { return &tracedFabric{Fabric: fab, t: t} }

// tracedFabric embeds the fabric under test and records one span per call of
// the four methods that do work. The embedded fabric's optional SyncFabric
// capability is deliberately not forwarded: on a flat simulated clock it
// degrades to At, which is exactly what the engine falls back to.
type tracedFabric struct {
	fl.Fabric
	t *tracer
}

func (f *tracedFabric) Dispatch(comm *fl.Comm, cohort []int, now float64, global []float64, lc fl.LocalConfig, deliver func([]fl.TrainResult, error)) {
	t := f.t
	d := t.open("fl.dispatch", rootSpan, t.now())
	f.Fabric.Dispatch(comm, cohort, now, global, lc, func(r []fl.TrainResult, err error) {
		// The simulated fabrics deliver before Dispatch returns, so the
		// engine's callback nests inside the dispatch span.
		c := t.open("fl.deliver", d, t.now())
		deliver(r, err)
		t.spans[c].EndMs = t.now()
	})
	t.spans[d].EndMs = t.now()
}

func (f *tracedFabric) Evaluate(w []float64) (fl.Result, bool) {
	s := f.t.open("fl.evaluate", rootSpan, f.t.now())
	res, ok := f.Fabric.Evaluate(w)
	f.t.spans[s].EndMs = f.t.now()
	return res, ok
}

func (f *tracedFabric) Partition(cfg fl.RunConfig) (*tiering.Tiers, error) {
	s := f.t.open("fl.partition", rootSpan, f.t.now())
	tiers, err := f.Fabric.Partition(cfg)
	f.t.spans[s].EndMs = f.t.now()
	return tiers, err
}

func (f *tracedFabric) Probe(comm *fl.Comm, ids []int, now float64, w []float64, replyBytes int) (float64, error) {
	s := f.t.open("fl.probe", rootSpan, f.t.now())
	done, err := f.Fabric.Probe(comm, ids, now, w, replyBytes)
	f.t.spans[s].EndMs = f.t.now()
	return done, err
}

// OnEvent cuts the live run's spans from the event stream. Event times are
// seconds on the server's clock, which starts when registration completes.
func (t *tracer) OnEvent(ev fl.Event) {
	switch e := ev.(type) {
	case fl.RoundStartEvent:
		t.openRound[e.Tier] = t.open("fl.round", rootSpan, 1e3*e.Time)
	case fl.ClientDoneEvent:
		if r, ok := t.openRound[e.Tier]; ok {
			s := t.open("transport.push_to_arrival", r, t.spans[r].StartMs)
			t.spans[s].EndMs = 1e3 * e.Time
		}
	case fl.TierFoldEvent:
		t.lastFold = 1e3 * e.Time
		r, ok := t.openRound[e.Tier]
		if !ok {
			return
		}
		delete(t.openRound, e.Tier)
		t.spans[r].EndMs = t.lastFold
		// The round's arrivals are the push_to_arrival children just added.
		for i, n := r+1, len(t.spans); i < n; i++ {
			if c := t.spans[i]; c.Parent == r && c.Name == "transport.push_to_arrival" {
				s := t.open("transport.arrival_to_fold", r, c.EndMs)
				t.spans[s].EndMs = t.lastFold
			}
		}
	case fl.EvalEvent:
		// The engine evaluates right after the fold it follows.
		s := t.open("fl.evaluate", rootSpan, t.lastFold)
		t.spans[s].EndMs = 1e3 * e.Time
	}
}

// selfMs returns every span's self time: its duration minus the part of that
// interval its child spans cover (children may overlap each other, as the
// live tiers' rounds do).
func selfMs(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartMs < spans[kids[b]].StartMs })
		covered, edge := 0.0, s.StartMs
		for _, k := range kids {
			lo, hi := max(spans[k].StartMs, edge), min(spans[k].EndMs, s.EndMs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = (s.EndMs - s.StartMs) - covered
	}
	return out
}

// shares sums self time by span name as a fraction of the root span. The
// root's own self time is reported under "engine": on the simulator that is
// the selector, pacer, fold and event loop, and fl.deliver (the engine's
// callback inside a dispatch) is folded into it.
func shares(spans []span) map[string]float64 {
	total := spans[rootSpan].EndMs - spans[rootSpan].StartMs
	out := map[string]float64{}
	if total <= 0 {
		return out
	}
	for i, self := range selfMs(spans) {
		name := spans[i].Name
		if i == rootSpan || name == "fl.deliver" {
			name = "engine"
		}
		out[name] += self / total
	}
	return out
}

// durations returns the durations (ms) of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.EndMs-s.StartMs)
		}
	}
	return out
}

// writeFile writes the spans to <dir>/<workload>.trace.json.
func (t *tracer) writeFile(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, workload+".trace.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
