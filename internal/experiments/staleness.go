package experiments

import (
	"fmt"

	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/simnet"
)

// The staleness experiment: the paper's FedAsync baseline discounts stale
// updates with one fixed polynomial weight; this extension sweeps the whole
// staleness-aware async family —
// fedasync's weight functions (poly, exp, hinge and the const no-discount
// control) across discount strengths, the asyncsgd gradient-style fold, the
// per-update vs oldest-member staleness anchor on the buffered pacer, and
// the staleness-adaptive local learning-rate stage — all under the dynamics
// experiment's drifting, churning population where staleness actually
// spreads. An edge-topology pair re-runs the headline composition through
// the hierarchy machinery, pinning that the family deploys unchanged.

// staleAlphas is the discount-strength sweep. 0.2 barely discounts, 0.5 is
// the engine default (the paper's FedAsync setting), 0.9 is aggressive.
var staleAlphas = []float64{0.2, 0.5, 0.9}

// staleWeightFuncs are the alpha-dependent weight functions of the sweep;
// const is alpha-independent and runs once as the no-discount control.
var staleWeightFuncs = []string{fl.StaleFuncPoly, fl.StaleFuncExp, fl.StaleFuncHinge}

// staleBufferK sizes the buffered pacer's fold cohort. Four arrivals per
// fold leave room for genuinely mixed staleness inside one buffer, which is
// what separates the per-update anchor from the oldest-member one.
const staleBufferK = 4

// staleCell assembles one cell of the grid: the composition's base is
// always fedasync (all-selection, wait-free client pacing), with the update
// rule and optionally the pacer overridden, and the run's staleness discount
// set to fn at alpha (0 keeps the engine default). The
// rule:func[:alpha][@pacer] label is the method's name, so it names the
// run's RNG streams and keys the run cache: identical compositions share one
// simulation across tables. Every cell runs on the dynamics population.
func staleCell(p Preset, pacer, rule, fn string, alpha float64, variant string, mutate func(*fl.RunConfig)) (cell, error) {
	label := rule + ":" + fn
	if alpha != 0 {
		label += fmt.Sprintf(":%g", alpha)
	}
	if pacer != "" {
		label += "@" + pacer
	}
	// The fedasync base selects "all" (every client loops wait-free); the
	// round-paced policies need a per-round cohort selector instead.
	sel := ""
	if pacer == "sync" || pacer == "tier" {
		sel = "random"
	}
	m, err := fl.Compose("fedasync", sel, pacer, rule, label)
	if err != nil {
		return cell{}, err
	}
	return cell{p: p, d: dsSpec{name: "cifar10", classesPerClient: 2},
		method: label, variant: variant, spec: &m,
		mutate: func(cfg *fl.RunConfig) {
			cfg.Staleness = fl.StalenessConfig{Func: fn, Alpha: alpha}
			if mutate != nil {
				mutate(cfg)
			}
		},
		cmutate: func(cc *simnet.ClusterConfig) { cc.Behavior = dynBehavior },
	}, nil
}

// staleBufMutate configures the buffered-pacer cells (variant "stale-buf").
// A fedbuff fold consumes K wait-free arrivals, so its round budget scales
// like the client pacer's divided by K (applyRoundBudget leaves non-tier,
// non-client pacers at the base cap, which would starve the buffered runs
// to a couple dozen folds).
func staleBufMutate(cfg *fl.RunConfig) {
	cfg.BufferK = staleBufferK
	cfg.Rounds *= 24 / staleBufferK
}

// staleRow renders the shared metric columns for one run.
func staleRow(run *metrics.Run) []report.Cell {
	return []report.Cell{
		accCell(run.BestAcc()), accCell(run.FinalAcc()),
		report.Num(float64(run.GlobalRounds), fmt.Sprint(run.GlobalRounds)),
		report.Numf("%.1fs", run.SecPerUpdate()),
	}
}

// staleness sweeps the async method family: weight function × discount
// strength, rule × pacer, per-update vs batch staleness anchors, the
// adaptive-LR stage, and the flat-vs-edge deployment of the headline
// composition.
func staleness(p Preset) (*Report, error) {
	rep := &Report{ID: "staleness", Title: "Staleness-aware async family: weight functions, anchors, adaptive LR"}

	// Plan the full grid as one batch so independent cells simulate
	// concurrently. gridCells is keyed by (func, alpha); the other tables
	// collect through their own cell definitions (shared labels dedupe in
	// the scheduler).
	var cells []cell
	collect := func(c cell, err error) (cell, error) {
		if err == nil {
			cells = append(cells, c)
		}
		return c, err
	}

	type gridKey struct {
		fn    string
		alpha float64
	}
	grid := map[gridKey]cell{}
	for _, fn := range staleWeightFuncs {
		for _, alpha := range staleAlphas {
			c, err := collect(staleCell(p, "", "fedasync", fn, alpha, "stale", nil))
			if err != nil {
				return nil, err
			}
			grid[gridKey{fn, alpha}] = c
		}
	}
	constCell, err := collect(staleCell(p, "", "fedasync", fl.StaleFuncConst, 0, "stale", nil))
	if err != nil {
		return nil, err
	}

	// Rule × pacer at the default poly:0.5: the fedasync fold under every
	// pacing policy, and the asyncsgd gradient-style fold under the two
	// wait-free pacers it targets.
	type pacerRow struct {
		rule  string
		pacer string // "" = the base's native client pacing
	}
	pacerRows := []pacerRow{
		{"fedasync", "sync"},
		{"fedasync", "tier"},
		{"fedasync", ""},
		{"fedasync", "fedbuff"},
		{"asyncsgd", ""},
		{"asyncsgd", "fedbuff"},
	}
	pacerCells := map[pacerRow]cell{}
	for _, pr := range pacerRows {
		variant, mutate := "stale", (func(*fl.RunConfig))(nil)
		if pr.pacer == "fedbuff" {
			variant, mutate = "stale-buf", staleBufMutate
		}
		c, err := collect(staleCell(p, pr.pacer, pr.rule, fl.StaleFuncPoly, 0.5, variant, mutate))
		if err != nil {
			return nil, err
		}
		pacerCells[pr] = c
	}

	// Anchor comparison: the legacy staleness rule discounts a buffered
	// cohort by its OLDEST member's anchor; fedasync weights each buffered
	// update by its own. Same pacer, same buffer, same weight function.
	batchCell, err := collect(staleCell(p, "fedbuff", "staleness", fl.StaleFuncPoly, 0.5, "stale-buf", staleBufMutate))
	if err != nil {
		return nil, err
	}

	// Adaptive-LR stage: the same compositions with the per-dispatch LR
	// scaled by the staleness weight of the dispatched tier/client.
	alrMutate := func(cfg *fl.RunConfig) { cfg.AdaptiveLR = true }
	alrBufMutate := func(cfg *fl.RunConfig) { staleBufMutate(cfg); cfg.AdaptiveLR = true }
	alrClient, err := collect(staleCell(p, "", "fedasync", fl.StaleFuncPoly, 0.5, "stale-alr", alrMutate))
	if err != nil {
		return nil, err
	}
	alrBuf, err := collect(staleCell(p, "fedbuff", "fedasync", fl.StaleFuncPoly, 0.5, "stale-buf-alr", alrBufMutate))
	if err != nil {
		return nil, err
	}

	// Topology pair: the headline buffered composition, on the plain round
	// budget, re-run through the hierarchy machinery (edge:1 is the
	// pass-through control; edge:2 shards the population).
	topoRows := []struct {
		key   string
		cloud edge.CloudConfig
	}{
		{"edge1/sync", edge.CloudConfig{Edges: 1, Fold: edge.FoldSync}},
		{"edge2/sync", edge.CloudConfig{Edges: 2, Fold: edge.FoldSync}},
	}
	topoCells := make([]cell, len(topoRows))
	for i, row := range topoRows {
		c, err := staleCell(p, "fedbuff", "fedasync", fl.StaleFuncPoly, 0.5, "topo/"+row.key,
			func(cfg *fl.RunConfig) { cfg.BufferK = staleBufferK })
		if err != nil {
			return nil, err
		}
		c.cloud = row.cloud
		topoCells[i] = c
		cells = append(cells, c)
	}
	r, err := runCells(cells)
	if err != nil {
		return nil, err
	}

	// Weight-function grid: final accuracy per discount strength. The const
	// control ignores alpha by construction, so it renders as one row with
	// its single run repeated — the no-discount reference each column is
	// read against.
	header := []string{"weight func"}
	for _, a := range staleAlphas {
		header = append(header, fmt.Sprintf("final@a=%g", a))
	}
	header = append(header, "best@a=0.5")
	tb := report.NewTable("fedasync (wait-free client pacing) on cifar10(#2) under drift+churn", header...)
	for _, fn := range staleWeightFuncs {
		row := []report.Cell{report.Str(fn)}
		var mid *metrics.Run
		for _, alpha := range staleAlphas {
			run := r.of(grid[gridKey{fn, alpha}])
			rep.Keep(fmt.Sprintf("fedasync/%s/a%g", fn, alpha), run)
			row = append(row, accCell(run.FinalAcc()))
			if alpha == 0.5 {
				mid = run
			}
		}
		row = append(row, accCell(mid.BestAcc()))
		tb.AddRow(row...)
	}
	constRun := r.of(constCell)
	rep.Keep("fedasync/const", constRun)
	constRow := []report.Cell{report.Str(fl.StaleFuncConst)}
	for range staleAlphas {
		constRow = append(constRow, accCell(constRun.FinalAcc()))
	}
	constRow = append(constRow, accCell(constRun.BestAcc()))
	tb.AddRow(constRow...)
	rep.AddTable(tb)

	// Staleness-vs-accuracy curves behind the grid: the poly sweep's
	// smoothed timelines, the figure the discount-strength claim rides on.
	polyRuns := map[string]*metrics.Run{}
	var polyOrder []string
	for _, alpha := range staleAlphas {
		run := r.of(grid[gridKey{fl.StaleFuncPoly, alpha}])
		key := fmt.Sprintf("poly/a%g", alpha)
		polyRuns[key] = run
		polyOrder = append(polyOrder, key)
	}
	timelineSeries(rep, "", polyRuns, polyOrder, p.smoothWindow)
	rep.AddTable(timelineTable("smoothed accuracy over virtual time (poly discount sweep)",
		polyRuns, polyOrder, p.smoothWindow, true))

	// Rule × pacer table.
	pt := report.NewTable("rule x pacer at poly:0.5",
		"rule", "pacer", "best acc", "final acc", "updates", "sec/update")
	for _, pr := range pacerRows {
		run := r.of(pacerCells[pr])
		pacer := pr.pacer
		if pacer == "" {
			pacer = "client"
		}
		rep.Keep(pr.rule+"/"+pacer, run)
		pt.AddRow(append([]report.Cell{report.Str(pr.rule), report.Str(pacer)}, staleRow(run)...)...)
	}
	rep.AddTable(pt)

	// Anchor table: per-update vs oldest-member staleness on the buffered
	// pacer. delta > 0 is the per-update anchor's final-accuracy edge.
	perUpdateRun, batchRun := r.of(pacerCells[pacerRow{"fedasync", "fedbuff"}]), r.of(batchCell)
	rep.Keep("anchor/batch", batchRun)
	at := report.NewTable(fmt.Sprintf("staleness anchor granularity (fedbuff pacer, K=%d)", staleBufferK),
		"anchor", "rule", "best acc", "final acc")
	at.AddRow(report.Str("oldest member"), report.Str("staleness:poly:0.5"),
		accCell(batchRun.BestAcc()), accCell(batchRun.FinalAcc()))
	at.AddRow(report.Str("per update"), report.Str("fedasync:poly:0.5"),
		accCell(perUpdateRun.BestAcc()), accCell(perUpdateRun.FinalAcc()))
	at.AddRow(report.Str("delta"), report.Str(""),
		report.Numf("%+.3f", perUpdateRun.BestAcc()-batchRun.BestAcc()),
		report.Numf("%+.3f", perUpdateRun.FinalAcc()-batchRun.FinalAcc()))
	rep.AddTable(at)

	// Adaptive-LR table: each pacer's off row is the matching cell above.
	alrClientRun, alrBufRun := r.of(alrClient), r.of(alrBuf)
	clientOff := r.of(pacerCells[pacerRow{"fedasync", ""}])
	rep.Keep("adaptive-lr/client", alrClientRun)
	rep.Keep("adaptive-lr/fedbuff", alrBufRun)
	lt := report.NewTable("staleness-adaptive local LR (fedasync:poly:0.5)",
		"pacer", "adaptive LR", "best acc", "final acc")
	lt.AddRow(report.Str("client"), report.Str("off"), accCell(clientOff.BestAcc()), accCell(clientOff.FinalAcc()))
	lt.AddRow(report.Str("client"), report.Str("on"), accCell(alrClientRun.BestAcc()), accCell(alrClientRun.FinalAcc()))
	lt.AddRow(report.Str("fedbuff"), report.Str("off"), accCell(perUpdateRun.BestAcc()), accCell(perUpdateRun.FinalAcc()))
	lt.AddRow(report.Str("fedbuff"), report.Str("on"), accCell(alrBufRun.BestAcc()), accCell(alrBufRun.FinalAcc()))
	rep.AddTable(lt)

	et := report.NewTable("fedasync:poly:0.5@fedbuff across topologies",
		"topology", "best acc", "final acc", "edge folds", "mean staleness")
	for i, row := range topoRows {
		run := r.of(topoCells[i])
		rep.Keep("topo/"+row.key, run)
		et.AddRow(report.Str(row.key),
			accCell(run.BestAcc()), accCell(run.FinalAcc()),
			report.Num(float64(run.EdgeFolds), fmt.Sprint(run.EdgeFolds)),
			report.Numf("%.2f", run.MeanEdgeStaleness()))
	}
	rep.AddTable(et)

	rep.AddNote("Every cell shares the dynamics experiment's drifting, churning population — the regime where " +
		"update staleness actually spreads. A label rule:func:alpha names the update rule (fedsim/fedserver -agg) " +
		"and the run's one staleness discount g (-stale-func, -stale-alpha), which the fold and the adaptive-LR " +
		"stage both read. The grid sweeps fedasync's " +
		"weight function and discount strength under wait-free client pacing; const is the no-discount control " +
		"(every stale update folds at full alpha), so columns read as how much discounting buys. The rule x " +
		"pacer table shows the family is pacing-agnostic: under sync pacing staleness is 0 by construction and " +
		"fedasync degrades to a plain alpha-blend; asyncsgd folds the staleness-weighted mean DELTA instead of " +
		"lerping toward each update — over cohorts of one (client pacing) the two rules coincide analytically, " +
		"which is why their client rows match, and they separate only once the buffered pacer folds real " +
		"cohorts. The buffered cells multiply the round budget by 24/K: a fedbuff fold consumes K wait-free " +
		"arrivals, so the default synchronous cap would starve it to a couple dozen folds. The anchor table " +
		"isolates the per-update StartRound redesign: with a " + fmt.Sprint(staleBufferK) + "-deep buffer the " +
		"oldest member's anchor over-discounts the fresh majority of each cohort, and weighting each update by " +
		"its own staleness recovers that accuracy. The adaptive-LR stage scales each dispatch's local learning " +
		"rate by the same weight function (shipped to live clients in the push header); at this scale the " +
		"damping costs accuracy within the fixed time budget — wait-free lineages run tens of updates stale, so " +
		"the poly weight cuts their LR several-fold — pricing the stability knob rather than advertising it. " +
		"The topology pair re-runs the buffered " +
		"composition through the hierarchy machinery: edge:1 must reproduce the flat engine bit for bit, and " +
		"edge:2 shards the population across two edge engines folding into a cloud model.")
	return rep, nil
}
