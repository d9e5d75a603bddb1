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
	"context"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // the first signal flushes the profiles; a second kills
	os.Exit(cli.Sim(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
