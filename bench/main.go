// Command bench is the repository's benchmark: five named workloads over the
// simulated and live fabrics, eight end-to-end metrics and a per-layer
// ledger. See README.md in this directory for what each workload and metric
// is; BENCHMARK.json at the repository root names them with their bounds.
//
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1   one run, in this process
//	bash bench/run.sh [-workload W] -runs K                       K fresh processes of one seed per workload, medians
//	bash bench/run.sh -selfcheck [-runs K]                        two interleaved sets of seeds, compared to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all, through the runner)")
		seed      = flag.Uint64("seed", 42, "seeds dataset, population and method together")
		seconds   = flag.Float64("seconds", refSeconds, "run length the update budget is scaled to")
		trace     = flag.Int("trace", 0, "1: traced run and layer probes, prints the per-layer metrics")
		runs      = flag.Int("runs", 0, "runner: fresh child processes per workload (default 5, selfcheck 10)")
		selfcheck = flag.Bool("selfcheck", false, "runner: two interleaved sets of -runs seeds, compared to BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}

	sp, err := loadSpec()
	if err != nil {
		fatal(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	if *name == "" || *runs > 0 || *selfcheck {
		if err := runner(sp, *name, *seed, *seconds, *runs, *trace != 0, *selfcheck); err != nil {
			fatal(err)
		}
		return
	}

	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	scale := *seconds / refSeconds
	var res *result
	if *trace != 0 {
		res, err = measureLayers(sp, w, *seed, scale, filepath.Join(sp.root, "bench", "out"))
	} else {
		res, err = measure(sp, w, *seed, scale, setupReps)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	report(w, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints every metric by name with its unit, then the one-line JSON
// object the driver reads.
func report(w *workload, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-18s %-36s %14.6g %s\n", w.name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range res.notes {
		fmt.Printf("%-18s note: %s\n", w.name, n)
	}
	for _, p := range res.problems {
		fmt.Printf("%-18s CHECK FAILED: %s\n", w.name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
