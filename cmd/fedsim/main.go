// Command fedsim regenerates the FedAT paper's tables and figures on the
// simulated cluster.
//
// Usage:
//
//	fedsim -list
//	fedsim -exp table1 -preset medium
//	fedsim -exp all -preset small -workers 8
//	fedsim -exp table1 -preset tiny -format json          # machine-readable
//	fedsim -exp all -preset small -format csv -out runs/  # one CSV per table/series/run
//
// The default text format prints to stdout; see EXPERIMENTS.md for the
// paper-vs-measured comparison of each artifact. -format json emits one
// JSON envelope (schema internal/report) with every report's typed
// artifacts, the kept runs expanded into accuracy/loss/bytes series, and
// the scheduler's per-cell timing and cache-hit metadata; -format csv
// writes one file per table, series and run into -out. -out also works
// with text and json to write files instead of stdout.
//
// With -exp all the experiments themselves run concurrently: the scheduler
// in internal/experiments deduplicates the simulation cells they share, so
// each underlying (preset, dataset, method, variant) run is simulated once
// no matter how many reports consume it. Reports still print in experiment
// id order and are byte-identical to a serial -workers 1 run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/simnet"
)

func main() {
	var (
		expID   = flag.String("exp", "", "experiment id (table1, table2, fig2..fig10, ablation-*, or 'all')")
		preset  = flag.String("preset", "small", "scale preset: tiny, small, medium, paper, huge (huge = the 1M-client lazy ladder; only -exp scale is designed for it)")
		list    = flag.Bool("list", false, "list experiments and exit")
		format  = flag.String("format", "text", "output format: text, json, or csv")
		outDir  = flag.String("out", "", "directory to write output files into (required for csv; optional for text/json, which default to stdout)")
		workers = flag.Int("workers", 0, "global cap on concurrently executing simulations (0 = GOMAXPROCS); with -exp all, also caps concurrent experiments")

		// Profiling and scale knobs.
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit (after a final GC)")

		// Composition mode: run one method assembled from policies. The
		// -select/-pacer/-agg overrides and the staleness, re-tiering,
		// attack/DP and edge→cloud policy knobs are the shared flags
		// (internal/cliflags); the rest are the simulator's own.
		compose = flag.String("compose", "", "run a single method composition: a registry method name used as the base spec (see -select/-pacer/-agg)")
		trace   = flag.Bool("trace", false, "with -compose, print the run's event stream to stderr")

		// Hierarchical topology (compose mode): shard the population
		// across K edge aggregators; see the 'hierarchy' experiment.
		topology = flag.String("topology", "flat", "with -compose, client topology: flat, or edge:K (K edge aggregators over sharded clients; edge:1 is bit-identical to flat)")
	)
	shared := cliflags.Bind(flag.CommandLine)
	// Dynamic-population knobs (compose mode): time-varying client behavior
	// beside the shared -retier-every; see the 'dynamics' experiment.
	flag.Float64Var(&shared.Behavior.DriftMag, "drift", 0, "with -compose, speed-drift magnitude per interval (e.g. 0.45; 0 = static speeds)")
	flag.Float64Var(&shared.Behavior.ChurnFrac, "churn", 0, "with -compose, fraction of clients cycling offline (e.g. 0.2; 0 = no churn)")
	flag.BoolVar(&shared.Behavior.AttackTail, "attack-tail", false, "with -compose, aim the attack at the slowest clients instead of a seed-drawn subset")
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-8s %s\n", id, experiments.Registry[id].Title)
		}
		fmt.Println("presets: tiny, small, medium, paper, huge")
		fmt.Println("formats: text, json, csv")
		fmt.Println("method composition (-compose <base> [-select ...] [-pacer ...] [-agg ...]):")
		for _, mn := range fl.MethodNames() {
			m := fl.Methods[mn]
			fmt.Printf("  %-14s = %s\n", mn, m)
		}
		return
	}
	edges, err := parseTopology(*topology)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedsim:", err)
		os.Exit(2)
	}
	if edges == 0 && len(shared.GivenCloud) > 0 {
		fmt.Fprintf(os.Stderr, "fedsim: %s given without -compose -topology edge:K (only a hierarchy has an edge→cloud hop)\n", strings.Join(shared.GivenCloud, ", "))
		os.Exit(2)
	}
	shared.Cloud.Edges = edges

	// The huge preset simulates a million clients lazily; an unbounded heap
	// lets the GC defer collection of per-round garbage far past the lazy
	// design's steady state. Respect an explicit GOMEMLIMIT, and
	// default to a soft 512MiB limit when the operator set none.
	if *preset == "huge" && os.Getenv("GOMEMLIMIT") == "" {
		debug.SetMemoryLimit(512 << 20)
	}

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedsim:", err)
		os.Exit(2)
	}
	defer stopProfiles()

	if *compose != "" {
		code := runComposition(*compose, shared, *preset, *trace)
		stopProfiles()
		os.Exit(code)
	}
	if len(shared.Given) > 0 {
		fmt.Fprintf(os.Stderr, "fedsim: %s given without -compose (the 'dynamics', 'robustness', 'staleness' and 'hierarchy' experiments carry their own)\n", strings.Join(shared.Given, ", "))
		os.Exit(2)
	}
	if shared.Behavior != (simnet.BehaviorConfig{}) {
		fmt.Fprintln(os.Stderr, "fedsim: -drift/-churn/-attack-tail require -compose (the 'dynamics' and 'robustness' experiments carry their own)")
		os.Exit(2)
	}
	if edges > 0 {
		fmt.Fprintln(os.Stderr, "fedsim: -topology requires -compose (the 'hierarchy' experiment carries its own)")
		os.Exit(2)
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "fedsim: -exp required (use -list to see experiments)")
		os.Exit(2)
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(os.Stderr, "fedsim: unknown -format %q (have text, json, csv)\n", *format)
		os.Exit(2)
	}
	if *format == "csv" && *outDir == "" {
		fmt.Fprintln(os.Stderr, "fedsim: -format csv requires -out <dir>")
		os.Exit(2)
	}
	p, err := experiments.PresetByName(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedsim:", err)
		os.Exit(2)
	}
	experiments.SetWorkers(*workers)

	ids := []string{*expID}
	if *expID == "all" {
		ids = experiments.IDs()
	}

	// Independent experiments run concurrently over a bounded pool; shared
	// cells dedupe inside the scheduler. Results become available in id
	// order as soon as each is ready.
	type result struct {
		rep *experiments.Report
		err error
		dur time.Duration
	}
	results := make([]result, len(ids))
	done := make([]chan struct{}, len(ids))
	for i := range done {
		done[i] = make(chan struct{})
	}
	expWorkers := *workers
	if expWorkers <= 0 {
		expWorkers = parallel.Workers(len(ids))
	}
	go parallel.Dynamic(len(ids), expWorkers, func(i int) {
		defer close(done[i])
		start := time.Now()
		rep, err := experiments.RunByID(ids[i], p)
		if err == nil {
			rep.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		}
		results[i] = result{rep: rep, err: err, dur: time.Since(start)}
	})

	// Progress framing goes to stdout only in text mode; json/csv keep
	// stdout clean for the machine-readable payload.
	progress := os.Stdout
	if *format != "text" {
		progress = os.Stderr
	}

	wallStart := time.Now()
	reports := make([]*experiments.Report, 0, len(ids))
	for i, id := range ids {
		<-done[i]
		r := results[i]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "fedsim: %s failed: %v\n", id, r.err)
			os.Exit(1)
		}
		reports = append(reports, r.rep)
		switch *format {
		case "text":
			if *outDir == "" {
				fmt.Print(r.rep.String())
			} else if err := writeTextFile(*outDir, r.rep); err != nil {
				fatal(err)
			}
		case "csv":
			files, err := report.WriteCSVDir(*outDir, r.rep)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(progress, "fedsim: %s: wrote %d CSV files to %s\n", id, len(files), *outDir)
		}
		fmt.Fprintf(progress, "(%s completed in %s at preset %s)\n\n", id, r.dur.Round(time.Millisecond), p.Name)
	}

	if *format == "json" {
		env := &report.Envelope{
			Preset:    p.Name,
			Seed:      p.Seed,
			Reports:   reports,
			Scheduler: experiments.SchedulerMeta(),
		}
		if *outDir == "" {
			if err := report.WriteJSON(os.Stdout, env); err != nil {
				fatal(err)
			}
		} else {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			f, err := os.Create(filepath.Join(*outDir, "report.json"))
			if err != nil {
				fatal(err)
			}
			err = report.WriteJSON(f, env)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(progress, "fedsim: wrote %s\n", filepath.Join(*outDir, "report.json"))
		}
	}
	if len(ids) > 1 {
		fmt.Fprintf(progress, "(%d experiments, %d simulation cells, %d cell requests served from cache, wall %s)\n",
			len(ids), experiments.SimulationCount(), experiments.CacheHitCount(),
			time.Since(wallStart).Round(time.Millisecond))
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

// runComposition assembles a method from the base registry spec plus the
// policy overrides, runs it on the standard ablation testbed at the given
// preset, and prints a run summary. It returns the process exit code;
// composition and aggregation errors surface here rather than panicking.
func runComposition(base string, over *cliflags.Shared, preset string, trace bool) int {
	p, err := experiments.PresetByName(preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedsim:", err)
		return 2
	}
	m, err := fl.Compose(base, over.Select, over.Pacer, over.Agg, over.Name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedsim:", err)
		return 2
	}

	var obs []fl.Observer
	if trace && over.Cloud.Edges > 0 {
		fmt.Fprintln(os.Stderr, "fedsim: -trace is a flat-topology feature (a hierarchy has one event stream per edge)")
		return 2
	}
	if trace {
		obs = append(obs, fl.ObserverFunc(func(ev fl.Event) {
			switch e := ev.(type) {
			case fl.RoundStartEvent:
				fmt.Fprintf(os.Stderr, "t=%8.1fs  round %4d  tier %d: %d clients selected\n",
					e.Time, e.Round, e.Tier, len(e.Clients))
			case fl.ClientDoneEvent:
				if e.Dropped {
					fmt.Fprintf(os.Stderr, "t=%8.1fs  client %d dropped mid-round\n", e.Time, e.Client)
				}
			case fl.TierFoldEvent:
				fmt.Fprintf(os.Stderr, "t=%8.1fs  fold  %4d  tier %d: %d updates\n",
					e.Time, e.Round, e.Tier, e.Kept)
			case fl.EvalEvent:
				fmt.Fprintf(os.Stderr, "t=%8.1fs  eval  %4d  acc=%.3f loss=%.3f var=%.2e\n",
					e.Time, e.Round, e.Result.Acc, e.Result.Loss, e.Result.Variance)
			case fl.RetierEvent:
				fmt.Fprintf(os.Stderr, "t=%8.1fs  retier %3d  %d clients migrated\n",
					e.Time, e.Round, e.Migrations)
			}
		}))
	}

	start := time.Now()
	dyn := experiments.ComposeDynamics{Run: over.ApplyRun, Behavior: over.Behavior}
	run, err := experiments.RunComposedTopology(p, m, dyn, over.Cloud, obs...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedsim:", err)
		return 1
	}
	finalTime := 0.0
	if len(run.Points) > 0 {
		finalTime = run.Points[len(run.Points)-1].Time
	}
	fmt.Printf("method %s (%s) on cifar10(#2) at preset %s\n", run.Method, m, p.Name)
	fmt.Printf("global updates    %d\n", run.GlobalRounds)
	fmt.Printf("best accuracy     %.3f\n", run.BestAcc())
	fmt.Printf("final accuracy    %.3f\n", run.FinalAcc())
	fmt.Printf("accuracy variance %.2e\n", run.MeanVariance())
	fmt.Printf("sec/update        %.1fs (%.1fs virtual total)\n", run.SecPerUpdate(), finalTime)
	fmt.Printf("communication     %.2f MB up, %.2f MB down\n",
		float64(run.UpBytes)/1e6, float64(run.DownBytes)/1e6)
	if run.Retiers > 0 {
		fmt.Printf("re-tiering        %d passes, %d client migrations\n", run.Retiers, run.TierMigrations)
	}
	if run.EdgeFolds > 0 {
		fmt.Printf("edge folds        %d cloud folds, mean staleness %.2f\n",
			run.EdgeFolds, run.MeanEdgeStaleness())
	}
	fmt.Fprintf(os.Stderr, "(completed in %s)\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// startProfiles switches on the requested pprof collectors and returns a
// flush function, safe to call more than once. The CPU profile streams
// until the flush; the heap profile is a single snapshot taken at flush
// time after a forced GC, so it reflects live retention rather than
// collectible garbage.
func startProfiles(cpu, mem string) (func(), error) {
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
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fedsim:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fedsim:", err)
			}
			f.Close()
		}
	}, nil
}

// writeTextFile renders one report into <out>/<id>.txt.
func writeTextFile(dir string, rep *experiments.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rep.ID+".txt"), []byte(rep.String()), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedsim:", err)
	os.Exit(1)
}
