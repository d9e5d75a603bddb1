package experiments

import (
	"fmt"

	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/simnet"
)

// The dynamics experiment: the paper profiles clients once and keeps the
// tier partition static for the whole run (§4); this extension asks what
// happens when the population refuses to stay profiled. Clients' compute
// speeds random-walk and a fraction of the population churns offline and
// back, so the one-shot profile goes stale — the regime the dynamic-tiering
// follow-up literature targets. Each method runs twice on the same drifting
// cluster: once with static tiers, once re-tiering periodically from
// EWMA-smoothed observed latencies (RunConfig.RetierEvery).

// dynBehavior is the drifting, churning population every dynamics cell
// shares. The drift is strong — ×[0.55, 1.45] per 40 virtual seconds,
// clamped to [1/4, 4] — so half an hour of virtual time thoroughly scrambles
// the profiled speed ordering, and a fifth of the population blinks offline
// for stretches.
var dynBehavior = simnet.BehaviorConfig{
	DriftMag:      0.45,
	DriftInterval: 40,
	DriftClamp:    4,
	ChurnFrac:     0.2,
	ChurnOn:       [2]float64{120, 360},
	ChurnOff:      [2]float64{40, 140},
}

// dynRetierEvery is the re-tiering cadence in global updates. Tier-paced
// methods fold many times per synchronous-round-equivalent, so this keeps
// re-tiering roughly once per few tier rounds without thrashing.
const dynRetierEvery = 8

// dynamics compares static tiers against periodic runtime re-tiering under
// speed drift and churn for FedAT, TiFL and FedAvg. Re-tiering only touches
// tier-paced loops (FedAT); the synchronous baselines ignore the knob —
// their rows double as a no-op control.
func dynamics(p Preset) (*Report, error) {
	rep := &Report{ID: "dynamics", Title: "Dynamic clients: static tiers vs runtime re-tiering"}
	spec := dsSpec{name: "cifar10", classesPerClient: 2}
	methods := []string{"fedat", "tifl", "fedavg"}
	modes := []struct {
		name   string
		retier bool
	}{{"static", false}, {"retier", true}}

	cellFor := func(method string, retier bool) cell {
		variant := "dyn-static"
		if retier {
			variant = "dyn-retier"
		}
		return cell{p: p, d: spec, method: method, variant: variant,
			mutate: func(cfg *fl.RunConfig) {
				if retier {
					cfg.RetierEvery = dynRetierEvery
				}
			},
			cmutate: func(cc *simnet.ClusterConfig) { cc.Behavior = dynBehavior },
		}
	}

	var cells []cell
	for _, m := range methods {
		for _, mode := range modes {
			cells = append(cells, cellFor(m, mode.retier))
		}
	}
	r, err := runCells(cells)
	if err != nil {
		return nil, err
	}

	tb := report.NewTable("cifar10(#2) under speed drift + churn",
		"method", "tiers", "best acc", "final acc", "sec/update", "re-tiers", "migrations")
	timeline := map[string]*metrics.Run{}
	for _, m := range methods {
		for _, mode := range modes {
			run := r.of(cellFor(m, mode.retier))
			key := m + "/" + mode.name
			rep.Keep(key, run)
			timeline[key] = run
			tb.AddRow(report.Str(run.Method), report.Str(mode.name),
				accCell(run.BestAcc()), accCell(run.FinalAcc()),
				report.Numf("%.1fs", run.SecPerUpdate()),
				report.Num(float64(run.Retiers), fmt.Sprint(run.Retiers)),
				report.Num(float64(run.TierMigrations), fmt.Sprint(run.TierMigrations)))
		}
	}
	rep.AddTable(tb)

	// Accuracy-over-virtual-time for the tier-paced pair — the curves the
	// static-vs-retier claim rides on — plus the synchronous control.
	order := []string{"fedat/static", "fedat/retier", "fedavg/static"}
	timelineSeries(rep, "", timeline, order, p.smoothWindow)
	rep.AddTable(timelineTable("smoothed accuracy over virtual time", timeline, order, p.smoothWindow, true))

	rep.AddNote("All runs share one drifting, churning population (speed random-walk ×[0.55,1.45] per 40s " +
		"clamped to [1/4,4]; 20% of clients cycle offline). With static tiers FedAT's fast tiers inherit " +
		"drifted-slow members and their round cadence collapses toward the slowest member; periodic " +
		"re-tiering (every " + fmt.Sprint(dynRetierEvery) + " global updates, EWMA-smoothed observed " +
		"latencies, hysteresis margin) re-sorts the population so fast tiers stay fast. The synchronous " +
		"baselines ignore RetierEvery by design — their static/retier rows are identical, the no-op " +
		"control matching the paper where only tiered systems re-profile.")
	return rep, nil
}
