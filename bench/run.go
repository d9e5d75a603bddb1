package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/fl"
	"repro/internal/metrics"
)

// metric is one named value with its unit, as the benchmark prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Set-up is repeated so setup_s is a median and so the simulated warm-up can
// be compared bit for bit between repetitions.
const setupReps = 3

// warmFrac is the share of the update budget the warm-up pass of every
// set-up runs: pools filled, lazy caches primed, tiers profiled once.
const warmFrac = 0.05

// meter is the benchmark's one observer on an untraced run: it stamps wall
// time on folds (the update gaps), counts client rounds and remembers the
// evaluation points. It never touches engine state.
type meter struct {
	lastFold   time.Time
	gapsMs     []float64 // wall time between consecutive folds
	folds      int
	kept       int // client updates folded
	clientDone int // client rounds resolved (arrived or dropped)
	dropped    int
	dispatches int // cohorts started (RoundStartEvents; the wait-free pacers emit none)
	evals      []evalPoint

	// At fold number allocFrom the meter reads the heap allocation counters
	// (ReadMemStats flushes the per-P caches, so they are exact); 0 = never.
	allocFrom int
	allocs0   runtime.MemStats
}

type evalPoint struct {
	round   int
	acc     float64
	up      int64
	virtual float64
}

func (m *meter) OnEvent(ev fl.Event) {
	switch e := ev.(type) {
	case fl.TierFoldEvent:
		now := time.Now()
		if m.folds > 0 {
			m.gapsMs = append(m.gapsMs, float64(now.Sub(m.lastFold))/1e6)
		}
		m.lastFold = now
		m.folds++
		m.kept += e.Kept
		if m.folds == m.allocFrom {
			runtime.ReadMemStats(&m.allocs0)
		}
	case fl.ClientDoneEvent:
		m.clientDone++
		if e.Dropped {
			m.dropped++
		}
	case fl.RoundStartEvent:
		m.dispatches++
	case fl.EvalEvent:
		m.evals = append(m.evals, evalPoint{e.Round, e.Result.Acc, e.UpBytes, e.Time})
	}
}

// usage reads the process's CPU time so far (user+system, seconds) and its
// high-water resident set (MB; ru_maxrss is kB on Linux).
func usage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN(), math.NaN() // fails the finite check
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// quantile returns the q-quantile of xs the way Python's
// statistics.quantiles does (the exclusive method: position q·(n+1) among
// the order statistics, clamped to the ends), which is what the driver
// computes spreads with; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	lo := int(math.Floor(pos))
	if lo < 0 {
		return s[0]
	}
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string // why Correct is false
	notes    []string // printed with the metrics, not part of the result line
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// fill reports values under the names, units and order BENCHMARK.json lists,
// so that file is the one table of metrics. A listed metric the run did not
// compute fails the run unless optional (a layer the workload bypasses reads
// 0); a computed value the file does not list always does.
func (r *result) fill(listed []specMetric, values map[string]float64, optional bool) {
	for _, m := range listed {
		v, ok := values[m.Name]
		if !ok && !optional {
			r.fail("BENCHMARK.json lists %s, which the run did not compute", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("%s is not finite", m.Name)
		}
		r.Metrics[m.Name] = metric{v, m.Unit}
	}
	for name := range values {
		if _, ok := r.Metrics[name]; !ok {
			r.fail("the run computed %s, which BENCHMARK.json does not list", name)
		}
	}
}

// setUp builds the workload reps times, each followed by the warm-up pass,
// and returns the last instance with the per-repetition wall times. On the
// simulated fabrics the warm-ups must end on bit-identical weights — the
// cheap stand-in for "the whole run repeats bit for bit".
func setUp(w *workload, seed uint64, scale float64, reps int, res *result) (*instance, []float64, error) {
	var (
		in    *instance
		times []float64
		prev  []float64
	)
	warm := w.rounds(scale * warmFrac)
	for i := 0; i < reps; i++ {
		// Drop the previous repetition's environment first, so peak RSS is
		// one environment plus the collector's headroom and not a sum that
		// depends on when the collector happened to run.
		in = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = w.build(seed); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		_, final, clientErrs, err := in.run(warm, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if clientErrs > 0 {
			res.fail("%d live clients ended the warm-up with an error", clientErrs)
		}
		if w.kind != liveTCP && prev != nil && !bitEqual(prev, final) {
			res.fail("warm-up repetition %d ended on different weights: the simulated run is not deterministic", i)
		}
		prev = final
	}
	return in, times, nil
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// measure is one untraced run of a workload: set-up (repeated), one timed
// section of the scaled update budget, and the output checks. scale 1 is the
// reference run length.
func measure(sp *spec, w *workload, seed uint64, scale float64, reps int) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	in, setupTimes, err := setUp(w, seed, scale, reps, res)
	if err != nil {
		return nil, err
	}
	rounds := w.rounds(scale)

	// The allocation metrics count from the budget's midpoint to its end: what
	// the engine builds once per run and a client's scratch on its first round
	// (which clients the warm-up left untouched depends on the seed) fall in
	// the first half, so the second half is the steady state.
	m := &meter{allocFrom: rounds / 2}
	var ms1 runtime.MemStats
	runtime.GC() // start the timed section from a collected heap, as testing.B does
	cpu0, _ := usage()
	t0 := time.Now()
	run, _, clientErrs, err := in.run(rounds, nil, m)
	wall := time.Since(t0).Seconds()
	cpu1, peakRSS := usage()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, fmt.Errorf("timed run: %w", err)
	}

	updates := float64(m.folds)
	steady := float64(m.folds - m.allocFrom) // updates the allocation counters cover
	res.Attempted = m.clientDone
	res.Failed = clientErrs
	// Times of the timed section are diagnostics here and per-layer metrics
	// of the traced run: on the shared reference box they do not repeat
	// within a bound worth gating on (README.md, calibration record).
	res.notes = append(res.notes, fmt.Sprintf(
		"timed section: %d updates in %.4g s: %.6g updates/s, %.6g ms CPU per update, update gap p50 %.6g ms, p90 %.6g ms",
		m.folds, wall, updates/wall, 1e3*(cpu1-cpu0)/updates, quantile(m.gapsMs, 0.5), quantile(m.gapsMs, 0.9)))
	res.fill(sp.EndToEnd, map[string]float64{
		"setup_s":             quantile(setupTimes, 0.5),
		"peak_rss_mb":         peakRSS,
		"allocs_per_update":   float64(ms1.Mallocs-m.allocs0.Mallocs) / steady,
		"alloc_kb_per_update": float64(ms1.TotalAlloc-m.allocs0.TotalAlloc) / 1e3 / steady,
		"up_kb_per_update":    float64(run.UpBytes) / 1e3 / updates,
		"down_kb_per_update":  float64(run.DownBytes) / 1e3 / updates,
		"final_acc":           run.FinalAcc(),
		"folded_frac":         float64(m.kept) / float64(m.clientDone),
	}, false)

	if scale >= 1 && run.FinalAcc() < w.targetAcc {
		res.fail("final accuracy %.4f is below the workload's target %.2f", run.FinalAcc(), w.targetAcc)
	}
	checkRun(w, run, m, rounds, clientErrs, res)
	return res, nil
}

// upToTarget returns the cumulative uplink bytes at which the evaluation
// curve first reaches target. The curve is read as piecewise linear between
// evaluations, so the value moves continuously with learning speed instead of
// jumping by a whole evaluation interval when a crossing slips by one point.
func upToTarget(evals []evalPoint, target float64) (float64, bool) {
	for i, p := range evals {
		if p.acc < target {
			continue
		}
		if i == 0 {
			return float64(p.up), true
		}
		prev := evals[i-1]
		f := (target - prev.acc) / (p.acc - prev.acc)
		return float64(prev.up) + f*float64(p.up-prev.up), true
	}
	return 0, false
}

// checkRun verifies one finished run's outputs against what its observer saw.
func checkRun(w *workload, run *metrics.Run, m *meter, rounds, clientErrs int, res *result) {
	if clientErrs > 0 {
		res.fail("%d live clients ended with an error", clientErrs)
	}
	if run.GlobalRounds < rounds || m.folds != run.GlobalRounds {
		res.fail("run made %d global updates, observer saw %d folds, budget %d", run.GlobalRounds, m.folds, rounds)
	}
	if len(m.evals) == 0 {
		res.fail("no evaluation points")
		return
	}
	last := m.evals[len(m.evals)-1]
	if last.round != run.GlobalRounds {
		res.fail("last evaluation at update %d, run ended at %d", last.round, run.GlobalRounds)
	}
	// On the simulator every byte is accounted at dispatch, so the uplink
	// total the observer saw at the final evaluation is the run's total. The
	// live fabric accounts at delivery and may still deliver a round that was
	// in flight when the budget ran out.
	if w.kind == liveTCP {
		if last.up > run.UpBytes {
			res.fail("observer saw %d uplink bytes, run reports %d", last.up, run.UpBytes)
		}
	} else if last.up != run.UpBytes {
		res.fail("observer saw %d uplink bytes, run reports %d", last.up, run.UpBytes)
	}
}
