package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// spec mirrors the parts of BENCHMARK.json the benchmark reads: the metric
// names, units, directions and bounds. That file is their one table.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`

	root string // the directory BENCHMARK.json was found in
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// benchmark was started there or in its own directory.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(root + "/BENCHMARK.json")
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s := &spec{root: root}
		if err := json.Unmarshal(data, s); err != nil {
			return nil, err
		}
		return s, nil
	}
	return nil, firstErr
}

// child runs one workload once in a fresh process of this same binary, so
// peak RSS, CPU time and allocation counters belong to that run alone, and
// returns the result object the child printed last.
func child(exe string, w *workload, seed uint64, seconds float64, trace bool) (*result, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to end
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	res := &result{}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: no result line: %w", w.name, seed, err)
	}
	if !res.Correct {
		for _, l := range lines {
			if bytes.Contains(l, []byte("CHECK FAILED")) {
				fmt.Println(string(l))
			}
		}
	}
	return res, nil
}

// samples collects one metric's values across the runs of one set.
type samples map[string]map[string][]float64 // workload → metric → values

func (s samples) add(w string, res *result) {
	if s[w] == nil {
		s[w] = map[string][]float64{}
	}
	for name, m := range res.Metrics {
		s[w][name] = append(s[w][name], m.Value)
	}
}

// sameSeed is how far an end-to-end metric may range over runs of one seed
// and one binary: the issue's per-fabric bounds, which BENCHMARK.json cannot
// carry because it holds one bound per metric and the driver mixes seeds.
// On the simulator these metrics are functions of the seed alone (the
// allocation counts but for the collector's own), so a later change is
// compared seed by seed at these tolerances. peak_rss_mb is not among them:
// it follows the collector's timing, not the seed. abs bounds are
// differences, the others shares of the median.
var sameSeed = []struct {
	name      string
	abs       bool
	sim, live float64
}{
	{"allocs_per_update", false, 0.02, 0.02},
	{"alloc_kb_per_update", false, 0.02, 0.02},
	{"up_kb_per_update", false, 0.01, 0.02},
	{"down_kb_per_update", false, 0.01, 0.02},
	{"final_acc", true, 0.002, 0.03},
	{"folded_frac", true, 0.002, 0.01},
}

// runner is the multi-run front end. Every run is a fresh child process and
// the workloads are visited round-robin (w1…w5, w1…w5, …), so slow drift of
// the host spreads over all of them instead of landing on one.
//
// Plain mode repeats one seed -runs times, prints each metric's median and
// quartiles, and fails when a metric ranges further than sameSeed allows.
// Selfcheck mode follows the driver's acceptance protocol: two interleaved
// sets A and B of -runs runs each, every run with another seed; a metric
// fails when a set's quartile distance exceeds its bound as a share of the
// set's median (setup_s excepted), or when B's median is worse than A's by
// more than the bound.
func runner(sp *spec, only string, seed uint64, seconds float64, runs int, trace, selfcheck bool) error {
	ws := workloads
	if only != "" {
		w, err := workloadByName(only)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	if selfcheck && trace {
		return fmt.Errorf("-selfcheck compares the end-to-end metrics; drop -trace")
	}
	if runs <= 0 {
		runs = 5
		if selfcheck {
			runs = 10
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	listed := sp.EndToEnd
	if trace {
		listed = sp.PerLayer
	}

	a, b := samples{}, samples{}
	correct := true
	for r := 0; r < runs; r++ {
		for _, w := range ws {
			type set struct {
				into samples
				seed uint64
			}
			sets := []set{{a, seed}}
			if selfcheck {
				sets = []set{{a, seed + uint64(r)}, {b, seed + uint64(runs+r)}}
			}
			for _, s := range sets {
				res, err := child(exe, w, s.seed, seconds, trace)
				if err != nil {
					return err
				}
				correct = correct && res.Correct
				s.into.add(w.name, res)
			}
		}
		fmt.Fprintf(os.Stderr, "bench: round %d/%d done\n", r+1, runs)
	}

	pass := true
	for _, w := range ws {
		for _, m := range listed {
			va := a[w.name][m.Name]
			q1, med, q3 := quantile(va, 0.25), quantile(va, 0.5), quantile(va, 0.75)
			line := fmt.Sprintf("%-18s %-34s median %12.6g  q1 %12.6g  q3 %12.6g %-8s", w.name, m.Name, med, q1, q3, m.Unit)
			if selfcheck {
				vb := b[w.name][m.Name]
				medB := quantile(vb, 0.5)
				spread := max(relSpread(va), relSpread(vb))
				worse := (medB - med) / med
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				if (m.Name != "setup_s" && spread > m.Bound) || worse > m.Bound {
					verdict, pass = "FAIL", false
				}
				line += fmt.Sprintf("  B median %12.6g  spread %6.2f%%  B worse by %6.2f%%  bound %5.1f%%  %s",
					medB, 100*spread, 100*worse, 100*m.Bound, verdict)
			}
			fmt.Println(line)
		}
		if selfcheck || trace {
			continue
		}
		for _, t := range sameSeed {
			v := a[w.name][t.name]
			lo, hi := quantile(v, 0), quantile(v, 1)
			moved, tol, unit := hi-lo, t.sim, ""
			if w.kind == liveTCP {
				tol = t.live
			}
			if !t.abs {
				moved, unit = 100*moved/quantile(v, 0.5), "%"
				tol *= 100
			}
			verdict := "ok"
			if moved > tol {
				verdict, pass = "FAIL", false
			}
			fmt.Printf("%-18s %-34s ranges over %.4g%s in %d runs of seed %d, same-seed tolerance %.4g%s  %s\n",
				w.name, t.name, moved, unit, runs, seed, tol, unit, verdict)
		}
	}
	if !correct {
		return fmt.Errorf("a run failed its output checks")
	}
	if !pass {
		return fmt.Errorf("a metric does not repeat within its bound")
	}
	return nil
}

// relSpread is the distance between the first and third quartile as a share
// of the median.
func relSpread(v []float64) float64 {
	med := quantile(v, 0.5)
	if med == 0 || math.IsNaN(med) {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / med
}
