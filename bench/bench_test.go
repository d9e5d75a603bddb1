package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testScale runs every workload at 1/50 of its update budget: long enough
// to cross every layer and every output check, short enough for `go test`.
const testScale = 1.0 / 50

// testWorkloads is the workload table with the lazy population cut to a size
// whose set-up takes milliseconds; every code path stays the same.
func testWorkloads() []*workload {
	out := make([]*workload, len(workloads))
	for i, w := range workloads {
		c := *w
		c.clients = min(c.clients, 20_000)
		out[i] = &c
	}
	return out
}

// TestWorkloadsPassTheirChecks runs each workload end to end with every
// output check on — determinism of the simulated warm-up, uplink accounting
// against the observer, zero live client errors, finite non-zero metrics —
// so the benchmark keeps compiling and stays correct when internal APIs move.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	t.Parallel()
	sp := mustSpec(t)
	for _, w := range testWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := measure(sp, w, 42, testScale, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("checks failed: %v", res.problems)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, e := range sp.EndToEnd {
				if m := res.Metrics[e.Name]; m.Unit != e.Unit || m.Value == 0 {
					t.Errorf("%s = %+v: want a non-zero value in %s", e.Name, m, e.Unit)
				}
			}
		})
	}
}

// TestLayerLedger runs the traced run and the layer probes of each workload
// and checks the properties the ledger exists to show: the traced shares
// account for the whole run, the written spans nest, and the workloads
// separate the layers (no codec on the raw CNN workload, no transport off the
// live one).
func TestLayerLedger(t *testing.T) {
	t.Parallel()
	sp, out := mustSpec(t), t.TempDir()
	for _, w := range testWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := measureLayers(sp, w, 42, testScale, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("checks failed: %v", res.problems)
			}
			val := func(name string) float64 { return res.Metrics[name].Value }
			// On the simulator the engine is one goroutine and the spans nest,
			// so the shares partition the run. Live client rounds overlap:
			// there dispatch_share is the mean number of them in flight.
			sum := val("fl.dispatch_share") + val("fl.eval_share") + val("fl.engine_share")
			if w.kind != liveTCP && math.Abs(sum-1) > 0.02 {
				t.Errorf("traced shares sum to %.4f, want 1 ± 0.02", sum)
			}
			if inFlight := float64(w.run.NumTiers * w.run.ClientsPerRound); w.kind == liveTCP && (sum < 1 || val("fl.dispatch_share") > inFlight) {
				t.Errorf("live shares: sum %.4f, dispatch %.4f with at most %g client rounds in flight", sum, val("fl.dispatch_share"), inFlight)
			}
			if _, err := os.Stat(filepath.Join(out, w.name+".trace.json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
			if live := w.kind == liveTCP; (val("transport.share") > 0) != live {
				t.Errorf("transport.share = %g on a workload with live = %v", val("transport.share"), live)
			}
			if w.name == "fedavg_cnn_sim" && val("codec.share") != 0 {
				t.Errorf("codec.share = %g on the raw-codec workload, want 0", val("codec.share"))
			}
			if w.name == "fedbuff_wide_sim" && val("codec.share") <= 0 {
				t.Errorf("codec.share = %g on the codec-bound workload", val("codec.share"))
			}
		})
	}
}

// TestMain shortens the layer probes for the whole test binary: the tests
// check what the ledger reports, not how precisely.
func TestMain(m *testing.M) {
	probeDur, probeBatches = time.Millisecond, 1
	os.Exit(m.Run())
}

// TestSelfTimeUsesTheUnionOfChildren pins the self-time rule on a hand-made
// tree with overlapping children, as the live tiers' rounds overlap.
func TestSelfTimeUsesTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "run", StartMs: 0, EndMs: 100, Parent: -1},
		{Name: "a", StartMs: 10, EndMs: 50, Parent: 0},
		{Name: "b", StartMs: 30, EndMs: 70, Parent: 0}, // overlaps a by 20
		{Name: "c", StartMs: 35, EndMs: 45, Parent: 2},
	}
	self := selfMs(spans)
	for i, want := range []float64{40, 40, 30, 10} {
		if math.Abs(self[i]-want) > 1e-9 {
			t.Errorf("self time of %s = %g, want %g", spans[i].Name, self[i], want)
		}
	}
}

// TestQuartilesMatchPython pins quantile against
// statistics.quantiles(values, n=4), which the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		values []float64
		want   [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7, 1, 3}, [3]float64{1, 3, 7}},
		{[]float64{2, 9, 4, 4, 1}, [3]float64{1.5, 4, 6.5}},
	}
	for _, c := range cases {
		got := [3]float64{quantile(c.values, 0.25), quantile(c.values, 0.5), quantile(c.values, 0.75)}
		if got != c.want {
			t.Errorf("quartiles of %v = %v, want %v", c.values, got, c.want)
		}
	}
}

// mustSpec loads BENCHMARK.json. Every run reports under the names it lists
// and fails on a name it does not, so the tests above also keep the file and
// the program from drifting apart.
func mustSpec(t *testing.T) *spec {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("BENCHMARK.json: %s has bound %g", m.Name, m.Bound)
		}
	}
	return sp
}
