package cli

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fl"
)

// Sim's rows run serially: experiments.SetWorkers, the cell cache and the
// CPU profiler are process-global. The table1 JSON row is TestFedsimJSON in
// internal/experiments, whose test binary has table1's cells cached.

// sim runs Sim on args and returns its exit code, stdout and stderr.
func sim(args ...string) (int, string, string) {
	var out, errs bytes.Buffer
	code := Sim(context.Background(), args, &out, &errs)
	return code, out.String(), errs.String()
}

// TestParseTopology: -topology is flat or edge:K with a whole K >= 1 and
// nothing after it — fmt.Sscanf used to read "edge:2x7" as edge:2.
func TestParseTopology(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"flat", 0, true},
		{"", 0, true},
		{"edge:1", 1, true},
		{"edge:4", 4, true},
		{"edge:0", 0, false},
		{"edge:-1", 0, false},
		{"edge:2x7", 0, false},
		{"edge:3 junk", 0, false},
		{"edge:", 0, false},
		{"edges:2", 0, false},
	} {
		got, err := parseTopology(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseTopology(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

// TestHelp: -h is not an error for any of the three commands, and prints
// the flag list to stderr.
func TestHelp(t *testing.T) {
	for name, run := range map[string]func(stdout, stderr *bytes.Buffer) int{
		"fedsim":    func(o, e *bytes.Buffer) int { return Sim(context.Background(), []string{"-h"}, o, e) },
		"fedserver": func(o, e *bytes.Buffer) int { return Server(context.Background(), []string{"-h"}, o, e) },
		"fedclient": func(o, e *bytes.Buffer) int { return Client([]string{"-h"}, o, e) },
	} {
		var out, errs bytes.Buffer
		if code := run(&out, &errs); code != 0 || !strings.HasPrefix(errs.String(), "Usage of "+name+":\n  -") {
			t.Errorf("%s -h exited %d with\n%s", name, code, errs.String())
		}
	}
}

// TestSimUsageErrors: a removed flag, a malformed value and an edge→cloud
// flag without a hierarchy exit 2 before anything is simulated.
func TestSimUsageErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"removed -sim-workers", []string{"-compose", "fedat", "-topology", "edge:2", "-sim-workers", "2"}},
		{"removed agg spec", []string{"-compose", "fedasync", "-agg", "fedasync:poly:0.5"}},
		{"unknown stale-func", []string{"-compose", "fedasync", "-stale-func", "bogus"}},
		{"negative stale-alpha", []string{"-compose", "fedasync", "-stale-alpha", "-1"}},
		{"trailing topology", []string{"-compose", "fedavg", "-topology", "edge:2x"}},
		{"uplink-topk without topology", []string{"-compose", "fedavg", "-uplink-topk", "0.25"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, out, errs := sim(append(c.args, "-preset", "tiny")...)
			if code != 2 || out != "" {
				t.Fatalf("exited %d, want 2; stdout %q, stderr:\n%s", code, out, errs)
			}
		})
	}
}

// TestSimCompositions: novel compositions, the robustness regimes and the
// staleness family run from flags alone, and each prints its summary.
func TestSimCompositions(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"oversel inside fedat", []string{"-compose", "fedat", "-select", "oversel"}},
		{"tifl with eq5", []string{"-compose", "tifl", "-agg", "eq5"}},
		{"median under a sign-flip attack", []string{"-compose", "fedat", "-agg", "median",
			"-attack", "scale", "-attack-scale=-4", "-attack-frac", "0.3", "-churn", "0.2"}},
		{"trimmed fedbuff under free-riding", []string{"-compose", "fedasync", "-pacer", "fedbuff", "-agg", "trimmed",
			"-buffer-k", "4", "-attack", "freeride", "-attack-frac", "0.2"}},
		{"dp", []string{"-compose", "fedavg", "-dp-clip", "1", "-dp-noise", "0.1"}},
		{"fedasync through fedbuff", []string{"-compose", "fedasync", "-pacer", "fedbuff", "-agg", "fedasync",
			"-buffer-k", "4", "-drift", "0.45", "-churn", "0.2"}},
		{"asyncsgd with adaptive lr", []string{"-compose", "fedasync", "-agg", "asyncsgd",
			"-stale-func", "exp", "-stale-alpha", "0.3", "-adaptive-lr"}},
		{"explicit zero stale-alpha", []string{"-compose", "fedasync", "-stale-alpha", "0"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, out, errs := sim(append(c.args, "-preset", "tiny")...)
			if code != 0 || !strings.Contains(out, "\nbest accuracy ") {
				t.Fatalf("exited %d; stdout:\n%s\nstderr:\n%s", code, out, errs)
			}
		})
	}
}

// TestSimHierarchyDeterministic: a hierarchy runs on one serial merged
// clock, so the same line twice prints the same stdout. The compose path
// is uncached: the second call simulates again.
func TestSimHierarchyDeterministic(t *testing.T) {
	args := strings.Fields("-compose fedasync -pacer fedbuff -agg fedasync -buffer-k 3 -topology edge:3 -drift 0.2 -churn 0.25 -preset tiny")
	code1, out1, errs := sim(args...)
	if code1 != 0 || !strings.Contains(out1, "\nedge folds ") {
		t.Fatalf("exited %d; stdout:\n%s\nstderr:\n%s", code1, out1, errs)
	}
	if code2, out2, _ := sim(args...); code2 != 0 || out2 != out1 {
		t.Fatalf("second run exited %d and printed\n%s\nfirst printed\n%s", code2, out2, out1)
	}
}

// TestSimTrace: -trace writes one JSON line per event to stderr, flat and
// under a hierarchy, and the same line twice writes the same trace. The
// stderr reads back through fl.ReadTrace: a hierarchy's lines come from
// each edge, each node's lines run from one start line naming the method
// to one end line, and a run whose loss goes NaN (a 1e308-scaled update
// poisons the first fold) still traces every event. -report on the
// captured stderr prints, under a header per node, the summary -compose
// printed: byte for byte for a flat run, whose end line holds the update
// count and the virtual total.
func TestSimTrace(t *testing.T) {
	for _, c := range []struct {
		name   string
		args   string
		method string
		nodes  []int
		has    string // a substring some line must contain
		heavy  bool   // skipped under -short (the race pass)
	}{
		{"flat", "-compose fedat", "FedAT", []int{0}, `"Kind":"fold"`, true},
		{"edge:2", "-compose fedat -topology edge:2", "FedAT", []int{0, 1}, `"Kind":"edgefold"`, true},
		{"non-finite loss", "-compose fedavg -attack scale -attack-frac 0.5 -attack-scale 1e308", "FedAvg", []int{0}, `"Loss":"NaN"`, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.heavy && testing.Short() {
				t.Skip("two fedat runs at the tiny preset")
			}
			args := strings.Fields(c.args + " -preset tiny -trace")
			var traces [2][]string
			var stdout, stderr string
			for i := range traces {
				code, out, errs := sim(args...)
				if code != 0 {
					t.Fatalf("exited %d; stdout:\n%s\nstderr:\n%s", code, out, errs)
				}
				for _, line := range strings.Split(errs, "\n") {
					if strings.HasPrefix(line, "{") {
						traces[i] = append(traces[i], line)
					}
				}
				stdout, stderr = out, errs
			}
			if !slices.Equal(traces[0], traces[1]) {
				t.Fatalf("two runs traced differently: %d and %d lines", len(traces[0]), len(traces[1]))
			}
			if !strings.Contains(stderr, c.has) {
				t.Errorf("no trace line contains %s", c.has)
			}
			runs, err := fl.ReadTrace(strings.NewReader(stderr))
			if err != nil {
				t.Fatal(err)
			}
			if got := slices.Sorted(maps.Keys(runs)); !slices.Equal(got, c.nodes) {
				t.Fatalf("trace lines from nodes %v, want %v", got, c.nodes)
			}
			var want strings.Builder
			for _, node := range c.nodes {
				run := runs[node]
				if run.Method != c.method {
					t.Errorf("node %d's start line names %q, want %q", node, run.Method, c.method)
				}
				fmt.Fprintf(&want, "node %d: %s on %s\n", node, run.Method, run.Dataset)
				if len(c.nodes) == 1 {
					_, body, _ := strings.Cut(stdout, "\n")
					want.WriteString(body)
				} else {
					printSummary(&want, run)
				}
			}
			if got := readReport(t, stderr); got != want.String() {
				t.Errorf("-report printed\n%s\nwant\n%s", got, want.String())
			}
		})
	}
}

// readReport runs fedsim -report on a file holding log and returns its stdout.
// It touches none of Sim's process-global state, so parallel rows may call
// it.
func readReport(t *testing.T, log string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.log")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errs := sim("-report", path)
	if code != 0 {
		t.Fatalf("-report exited %d; stdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	return out
}

// TestSimReportErrors: -report beside any other flag is a usage error, and
// a file that holds no readable trace fails the run.
func TestSimReportErrors(t *testing.T) {
	dir := t.TempDir()
	cut := filepath.Join(dir, "cut.log")
	if err := os.WriteFile(cut, []byte(`{"Node":0,"Kind":"start","Method":"FedAT","Dataset":"x"}`+"\n"+`{"Node":0,"Kind":"end","Ro`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"with -compose", []string{"-report", cut, "-compose", "fedat"}, 2},
		{"with -exp", []string{"-report", cut, "-exp", "fig6"}, 2},
		{"with a run flag", []string{"-report", cut, "-trace"}, 2},
		{"missing file", []string{"-report", filepath.Join(dir, "missing.log")}, 1},
		{"cut mid-line", []string{"-report", cut}, 1},
		{"no trace line", []string{"-report", os.DevNull}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if code, out, errs := sim(c.args...); code != c.want || out != "" {
				t.Fatalf("exited %d, want %d; stdout %q, stderr:\n%s", code, c.want, out, errs)
			}
		})
	}
}

// TestSimProfiles: a usage error starts no profile, so it leaves no file
// behind; a run that succeeds flushes both profiles on its way out.
func TestSimProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	t.Run("usage error creates no file", func(t *testing.T) {
		if code, _, errs := sim("-cpuprofile", cpu, "-memprofile", mem, "-exp", "table1", "-format", "bogus"); code != 2 {
			t.Fatalf("exited %d, want 2; stderr:\n%s", code, errs)
		}
		for _, f := range []string{cpu, mem} {
			if _, err := os.Stat(f); !os.IsNotExist(err) {
				t.Errorf("%s exists after a usage error (stat: %v)", filepath.Base(f), err)
			}
		}
	})
	t.Run("run writes both profiles", func(t *testing.T) {
		if code, _, errs := sim("-cpuprofile", cpu, "-memprofile", mem, "-compose", "fedavg", "-preset", "tiny"); code != 0 {
			t.Fatalf("exited %d; stderr:\n%s", code, errs)
		}
		for _, f := range []string{cpu, mem} {
			if st, err := os.Stat(f); err != nil || st.Size() == 0 {
				t.Errorf("%s not written: %v", filepath.Base(f), err)
			}
		}
	})
}
