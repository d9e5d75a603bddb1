package cli

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/simnet"
)

// Sim is cmd/fedsim: it regenerates the paper's experiments, or runs one
// -compose method, on the simulated cluster and returns the exit code.
// Every usage check runs before a profile is started, so a usage error
// (exit 2) leaves no profile file behind. Cancelling ctx abandons the
// simulation and flushes the profiles.
func Sim(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID   = fs.String("exp", "", "experiment id (table1, table2, fig2..fig10, ablation-*, or 'all')")
		preset  = fs.String("preset", "small", "scale preset: tiny, small, medium, paper, huge (huge = the 1M-client lazy ladder; only -exp scale is designed for it)")
		list    = fs.Bool("list", false, "list experiments and exit")
		format  = fs.String("format", "text", "output format: text, json, or csv")
		outDir  = fs.String("out", "", "directory to write output files into (required for csv; optional for text/json, which default to stdout)")
		workers = fs.Int("workers", 0, "global cap on concurrently executing simulations (0 = GOMAXPROCS)")

		// Profiling and scale knobs.
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file at exit (after a final GC)")

		// Composition mode: run one method assembled from policies. The
		// -select/-pacer/-agg overrides and the staleness, re-tiering,
		// attack/DP and edge→cloud policy knobs are the shared flags
		// (bind); the rest are the simulator's own.
		compose = fs.String("compose", "", "run a single method composition: a registry method name used as the base spec (see -select/-pacer/-agg)")
		trace   = fs.Bool("trace", false, "with -compose, print the run's event stream to stderr as JSON Lines, one per event, stamped with the emitting node")
		rep     = fs.String("report", "", "print each node's run summary from a file of trace lines (a -trace capture or a fedserver log) and run nothing; takes no other flag")

		// Hierarchical topology (compose mode): shard the population
		// across K edge aggregators; see the 'hierarchy' experiment.
		topology = fs.String("topology", "flat", "with -compose, client topology: flat, or edge:K (K edge aggregators over sharded clients; edge:1 is bit-identical to flat)")
	)
	shared := bind(fs)
	// Dynamic-population knobs (compose mode): time-varying client behavior
	// beside the shared -retier-every; see the 'dynamics' experiment.
	fs.Float64Var(&shared.behavior.DriftMag, "drift", 0, "with -compose, speed-drift magnitude per interval (e.g. 0.45; 0 = static speeds)")
	fs.Float64Var(&shared.behavior.ChurnFrac, "churn", 0, "with -compose, fraction of clients cycling offline (e.g. 0.2; 0 = no churn)")
	fs.BoolVar(&shared.behavior.AttackTail, "attack-tail", false, "with -compose, aim the attack at the slowest clients instead of a seed-drawn subset")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "fedsim: "+format+"\n", a...)
		return code
	}

	if *rep != "" {
		var others []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "report" {
				others = append(others, "-"+f.Name)
			}
		})
		if len(others) > 0 {
			return fail(2, "-report takes no other flag (got %s)", strings.Join(others, ", "))
		}
		if err := runReport(*rep, stdout); err != nil {
			return fail(1, "%v", err)
		}
		return 0
	}
	if *list {
		fmt.Fprintln(stdout, "experiments:")
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "  %-8s %s\n", id, experiments.Registry[id].Title)
		}
		fmt.Fprint(stdout, "presets: tiny, small, medium, paper, huge\nformats: text, json, csv\n"+
			"method composition (-compose <base> [-select ...] [-pacer ...] [-agg ...]):\n")
		for _, mn := range fl.MethodNames() {
			fmt.Fprintf(stdout, "  %-14s = %s\n", mn, fl.Methods[mn])
		}
		return 0
	}
	edges, err := parseTopology(*topology)
	if err != nil {
		return fail(2, "%v", err)
	}
	if err := shared.cloudUnused(edges > 0, "-compose -topology edge:K"); err != nil {
		return fail(2, "%v", err)
	}
	shared.cloud.Edges = edges
	p, err := experiments.PresetByName(*preset)
	if err != nil {
		return fail(2, "%v", err)
	}

	var job func() error
	if *compose != "" {
		m, err := fl.Compose(*compose, shared.sel, shared.pacer, shared.agg, shared.name)
		if err != nil {
			return fail(2, "%v", err)
		}
		job = func() error { return runComposition(p, m, shared, *trace, stdout, stderr) }
	} else {
		switch {
		case len(shared.given) > 0:
			return fail(2, "%s given without -compose (the 'dynamics', 'robustness', 'staleness' and 'hierarchy' experiments carry their own)", strings.Join(shared.given, ", "))
		case shared.behavior != (simnet.BehaviorConfig{}):
			return fail(2, "-drift/-churn/-attack-tail require -compose (the 'dynamics' and 'robustness' experiments carry their own)")
		case edges > 0:
			return fail(2, "-topology requires -compose (the 'hierarchy' experiment carries its own)")
		case *expID == "":
			return fail(2, "-exp required (use -list to see experiments)")
		case *format != "text" && *format != "json" && *format != "csv":
			return fail(2, "unknown -format %q (have text, json, csv)", *format)
		case *format == "csv" && *outDir == "":
			return fail(2, "-format csv requires -out <dir>")
		}
		job = func() error { return runExperiments(*expID, p, *format, *outDir, *workers, stdout, stderr) }
	}

	// The huge preset simulates a million clients lazily; an unbounded heap
	// lets the GC defer collection of per-round garbage far past the lazy
	// design's steady state. Respect an explicit GOMEMLIMIT, and
	// default to a soft 512MiB limit when the operator set none.
	if *preset == "huge" && os.Getenv("GOMEMLIMIT") == "" {
		debug.SetMemoryLimit(512 << 20)
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile, stderr)
	if err != nil {
		return fail(2, "%v", err)
	}
	defer stopProfiles()
	// The simulation takes no context: on cancellation Sim returns without
	// waiting for it, and main exits.
	done := make(chan error, 1)
	go func() { done <- job() }()
	select {
	case err := <-done:
		if err != nil {
			return fail(1, "%v", err)
		}
		return 0
	case <-ctx.Done():
		return fail(1, "interrupted")
	}
}

// parseTopology parses -topology (flat | edge:K) into the edge count K;
// flat is 0. Anything but a whole K >= 1 after "edge:" is an error.
func parseTopology(s string) (int, error) {
	if s == "" || s == "flat" {
		return 0, nil
	}
	if rest, ok := strings.CutPrefix(s, "edge:"); ok {
		if k, err := strconv.Atoi(rest); err == nil && k >= 1 {
			return k, nil
		}
	}
	return 0, fmt.Errorf("-topology %q: want flat or edge:K with K >= 1", s)
}

// runExperiments runs the experiments id names ('all' for every one) at
// preset p and renders their reports in the given format.
func runExperiments(id string, p experiments.Preset, format, outDir string, workers int, stdout, stderr io.Writer) error {
	experiments.SetWorkers(workers)
	ids := []string{id}
	if id == "all" {
		ids = experiments.IDs()
	}

	// Independent experiments run concurrently, one goroutine each; shared
	// cells dedupe inside the scheduler, whose gate caps the simulations
	// at -workers. Results become available in id order as soon as each
	// is ready. The goroutines are plain ones, not a parallel region: an
	// experiment spends most of its life waiting on cells, and a wait must
	// not hold a helper of the core budget that the cells, cohorts and
	// GEMMs under the running experiments could use.
	type result struct {
		rep *experiments.Report
		err error
		dur time.Duration
	}
	results := make([]chan result, len(ids))
	for i, id := range ids {
		results[i] = make(chan result, 1)
		go func() {
			start := time.Now()
			rep, err := experiments.RunByID(id, p)
			if err == nil {
				rep.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
			}
			results[i] <- result{rep: rep, err: err, dur: time.Since(start)}
		}()
	}

	// Progress framing goes to stdout only in text mode; json/csv keep
	// stdout clean for the machine-readable payload.
	progress := stdout
	if format != "text" {
		progress = stderr
	}

	wallStart := time.Now()
	reports := make([]*experiments.Report, 0, len(ids))
	for i, id := range ids {
		r := <-results[i]
		if r.err != nil {
			return fmt.Errorf("%s failed: %w", id, r.err)
		}
		reports = append(reports, r.rep)
		switch format {
		case "text":
			if outDir == "" {
				fmt.Fprint(stdout, r.rep.String())
			} else if err := writeFile(outDir, id+".txt", []byte(r.rep.String())); err != nil {
				return err
			}
		case "csv":
			files, err := report.WriteCSVDir(outDir, r.rep)
			if err != nil {
				return err
			}
			fmt.Fprintf(progress, "fedsim: %s: wrote %d CSV files to %s\n", id, len(files), outDir)
		}
		fmt.Fprintf(progress, "(%s completed in %s at preset %s)\n\n", id, r.dur.Round(time.Millisecond), p.Name)
	}

	if format == "json" {
		env := &report.Envelope{
			Preset:    p.Name,
			Seed:      p.Seed,
			Reports:   reports,
			Scheduler: experiments.SchedulerMeta(),
		}
		var buf bytes.Buffer
		err := report.WriteJSON(&buf, env)
		if err == nil && outDir == "" {
			_, err = stdout.Write(buf.Bytes())
		} else if err == nil {
			err = writeFile(outDir, "report.json", buf.Bytes())
			fmt.Fprintf(progress, "fedsim: wrote %s\n", filepath.Join(outDir, "report.json"))
		}
		if err != nil {
			return err
		}
	}
	if len(ids) > 1 {
		fmt.Fprintf(progress, "(%d experiments, %d simulation cells, %d cell requests served from cache, wall %s)\n",
			len(ids), experiments.SimulationCount(), experiments.CacheHitCount(),
			time.Since(wallStart).Round(time.Millisecond))
	}
	return nil
}

// runComposition runs method m on the standard ablation testbed at preset
// p with the shared flags' overrides and prints a run summary.
func runComposition(p experiments.Preset, m fl.Method, over *shared, trace bool, stdout, stderr io.Writer) error {
	var traceTo io.Writer
	if trace {
		traceTo = stderr
	}

	start := time.Now()
	dyn := experiments.ComposeDynamics{Run: over.applyRun, Behavior: over.behavior}
	run, err := experiments.RunComposedTopology(p, m, dyn, over.cloud, traceTo)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "method %s (%s) on cifar10(#2) at preset %s\n", run.Method, m, p.Name)
	printSummary(stdout, run)
	fmt.Fprintf(stderr, "(completed in %s)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runReport prints, for each node of the trace lines in the file at path,
// a header naming the run and the summary a -compose run prints.
func runReport(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runs, err := fl.ReadTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return fmt.Errorf("%s holds no trace line", path)
	}
	for _, node := range slices.Sorted(maps.Keys(runs)) {
		run := runs[node]
		fmt.Fprintf(stdout, "node %d: %s on %s\n", node, run.Method, run.Dataset)
		printSummary(stdout, run)
	}
	return nil
}

// printSummary prints a run's summary body: its update count, accuracy,
// time per update, traffic and, when they happened, re-tiering and edge
// folds. Times are on the run's own clock — virtual seconds on the
// simulator, wall seconds since the server's run began on a fedserver
// log — and printed to four significant digits, so a sub-second live run
// does not read 0.
func printSummary(w io.Writer, run *metrics.Run) {
	fmt.Fprintf(w, "global updates    %d\n", run.GlobalRounds)
	fmt.Fprintf(w, "best accuracy     %.3f\n", run.BestAcc())
	fmt.Fprintf(w, "final accuracy    %.3f\n", run.FinalAcc())
	fmt.Fprintf(w, "accuracy variance %.2e\n", run.MeanVariance())
	fmt.Fprintf(w, "sec/update        %.4gs (%.4gs on the run's clock)\n", run.SecPerUpdate(), run.EndTime)
	fmt.Fprintf(w, "communication     %.2f MB up, %.2f MB down\n", float64(run.UpBytes)/1e6, float64(run.DownBytes)/1e6)
	if run.Retiers > 0 {
		fmt.Fprintf(w, "re-tiering        %d passes, %d client migrations\n", run.Retiers, run.TierMigrations)
	}
	if run.EdgeFolds > 0 {
		fmt.Fprintf(w, "edge folds        %d cloud folds, mean staleness %.2f\n", run.EdgeFolds, run.MeanEdgeStaleness())
	}
}

// startProfiles switches on the requested pprof collectors and returns
// their flush. The CPU profile streams until the flush; the heap profile is a single snapshot taken at flush
// time after a forced GC, so it reflects live retention rather than
// collectible garbage.
func startProfiles(cpu, mem string, stderr io.Writer) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(stderr, "fedsim:", err)
			}
		}
		if mem != "" {
			var heap bytes.Buffer
			runtime.GC()
			err := pprof.WriteHeapProfile(&heap)
			if err == nil {
				err = os.WriteFile(mem, heap.Bytes(), 0o644)
			}
			if err != nil {
				fmt.Fprintln(stderr, "fedsim:", err)
			}
		}
	}, nil
}

// writeFile writes b to <dir>/<name>, creating dir if needed.
func writeFile(dir, name string, b []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
