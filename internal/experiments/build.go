package experiments

import (
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// Report is the output of one experiment: the typed artifact model of
// internal/report (tables, series, scalars, notes) plus the kept raw run
// records. Experiments build artifacts; the report package's renderers
// turn them into text, JSON or CSV.
type Report = report.Report

// dsSpec names a dataset configuration used by an experiment.
type dsSpec struct {
	name             string // "cifar10", "fashion", "sent140", "femnist", "reddit"
	classesPerClient int    // image datasets only; 0 = IID
	large            bool   // use the large-scale client count
}

func (d dsSpec) label() string {
	if d.classesPerClient > 0 {
		return fmt.Sprintf("%s(#%d)", d.name, d.classesPerClient)
	}
	return d.name + "(iid)"
}

// buildFed constructs n clients of the spec's federated dataset, the data
// seed offset by off: an edge shard's offset, 0 for a flat run.
func buildFed(p Preset, d dsSpec, n int, off uint64) (*dataset.Federated, error) {
	seed := p.Seed + uint64(d.classesPerClient) + off
	switch d.name {
	case "cifar10":
		return dataset.CIFAR10Like(n, d.classesPerClient, p.DataScale, seed)
	case "fashion":
		return dataset.FashionLike(n, d.classesPerClient, p.DataScale, seed)
	case "sent140":
		return dataset.Sent140Like(n, d.classesPerClient, p.DataScale, seed)
	case "femnist":
		return dataset.FEMNISTLike(n, p.DataScale, seed)
	case "reddit":
		return dataset.RedditLike(n, p.DataScale, seed)
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", d.name)
	}
}

// modelFactory picks the paper's architecture for a dataset (§6 "Models").
func modelFactory(p Preset, fed *dataset.Federated) fl.ModelFactory {
	switch {
	case fed.Vocab > 0: // Reddit: embedding + LSTM classifier
		emb, hidden := 8, 16
		if p.UseCNN { // reuse the fidelity knob for sequence width
			emb, hidden = 16, 32
		}
		cfg := nn.LSTMConfig{
			Vocab: fed.Vocab, Emb: emb, Hidden: hidden,
			SeqLen: fed.SeqLen, Classes: fed.Classes,
			Dropout: 0.1, BatchNorm: true,
		}
		return func(seed uint64) *nn.Network { return nn.NewLSTMClassifier(rng.New(seed), cfg) }
	case fed.Name == "sent140like": // logistic regression (convex)
		return func(seed uint64) *nn.Network { return nn.NewLogistic(rng.New(seed), fed.InDim, fed.Classes) }
	case p.UseCNN:
		cfg := nn.SmallCNN(fed.ImgC, fed.ImgH, fed.ImgW, fed.Classes)
		return func(seed uint64) *nn.Network { return nn.NewCNN(rng.New(seed), cfg) }
	default:
		return func(seed uint64) *nn.Network { return nn.NewMLP(rng.New(seed), fed.InDim, 32, fed.Classes) }
	}
}

// clusterConfig is the standard virtual testbed: five delay parts (§6),
// one unstable client per ten, 1 MB/s client links and a 16 MB/s shared
// server link.
//
// SecPerBatch is calibrated so a nominal local round computes for ~15-20
// virtual seconds — the same order as the paper's testbed, where real
// TensorFlow training dominates and the 0-30s injected delays roughly
// double the slow tiers' round times (≈2-4x spread between the fastest and
// slowest tier). Making compute negligible instead would exaggerate the
// tier-frequency skew far beyond the regime Eq. 5 was designed for.
func clusterConfig(p Preset, numClients int) simnet.ClusterConfig {
	return simnet.ClusterConfig{
		NumClients:  numClients,
		NumUnstable: numClients / 10,
		DropHorizon: 20000,
		SecPerBatch: 1.0,
		UpBW:        1 << 20,
		DownBW:      1 << 20,
		ServerBW:    16 << 20,
		Seed:        p.Seed,
	}
}

// runConfig is the shared hyperparameter block (§6). The budget is VIRTUAL
// TIME, like the paper's timeline figures: every method trains for the same
// simulated duration (sized so the synchronous baselines converge within
// it), with per-method round caps as a safety valve. Comparing at equal
// update counts instead would handicap FedAT and FedAsync, whose updates
// are individually much cheaper than a full synchronous round.
func runConfig(p Preset, d dsSpec) fl.RunConfig {
	rounds := p.Rounds
	if d.large {
		rounds = p.LargeRounds
	}
	return fl.RunConfig{
		Rounds:          rounds,
		ClientsPerRound: 10,
		LocalEpochs:     3,
		BatchSize:       10,
		// Lambda unset: inherits fl.DefaultLambda (the paper's 0.4).
		LearningRate: 0.005,
		NumTiers:     5,
		EvalEvery:    p.EvalEvery,
		// ~35s is the typical synchronous round under the calibrated
		// compute model, so this budget lets FedAvg finish its cap.
		MaxSimTime: float64(rounds) * 35,
		Seed:       p.Seed,
	}
}

// methodRoundCap scales the round cap for methods whose global updates are
// cheaper than a synchronous round. The cap is a function of the method's
// pacing policy, so novel compositions inherit the right budget: tier-paced
// loops produce several times more updates within the shared time budget,
// and the wait-free client loops more still.
func methodRoundCap(m fl.Method, base int) int {
	switch m.Pace {
	case "tier":
		return base * 12
	case "client":
		// Wait-free updates are ~20x cheaper than a synchronous round;
		// x24 covers the methods' plateau (verified against a full-budget
		// probe) at a fraction of the simulation cost.
		return base * 24
	default:
		return base
	}
}

// applyRoundBudget scales the round cap and evaluation cadence to the
// method's pacing granularity; every cell's RunConfig goes through it, so
// -compose runs stay comparable to cached experiment cells. Evaluation
// cadence grows with the round cap, but only half as fast: cheap-update methods produce updates faster in TIME too,
// so halving keeps the wall-clock eval density of their timelines
// comparable to the synchronous baselines'.
func applyRoundBudget(cfg *fl.RunConfig, m fl.Method) {
	base := cfg.Rounds
	cfg.Rounds = methodRoundCap(m, base)
	mult := cfg.Rounds / base
	cfg.EvalEvery = cfg.EvalEvery * (1 + mult) / 2
	if cfg.EvalEvery < 1 {
		cfg.EvalEvery = 1
	}
}

// polyline4 is §6's transmit codec: FedAT uses polyline precision 4
// throughout the evaluation; baselines transmit raw models.
func polyline4(cfg *fl.RunConfig) { cfg.Codec = codec.NewPolyline(4) }

// runCell is the one body that runs a cell, cached or not: it builds the
// cell's RunConfig and environment (one per edge under a hierarchy) and
// runs its method. Cells sharing a preset and spec start from the same
// dataset, cluster and seed, and every method from the same time budget. A
// non-nil trace receives the event stream as fl.TraceLine lines (node 0
// flat, else the edge id) in timeline order.
func runCell(c cell, trace io.Writer) (*metrics.Run, error) {
	m, err := c.methodSpec()
	if err != nil {
		return nil, err
	}
	cfg := c.runConfig(m)
	if c.cloud.Edges > 0 {
		return runHierarchy(c, m, cfg, trace)
	}
	env, _, err := c.env(cfg, c.clients(), 0)
	if err != nil {
		return nil, err
	}
	if trace == nil {
		return m.Run(env)
	}
	return m.Run(env, fl.Trace(trace, 0))
}

// runConfig is the cell's RunConfig, flat or per edge: the preset's
// block, polyline4 for the registry's FedAT (an explicit composition
// transmits what its mutate sets), the cell's mutate, then the round
// budget of the method's pacing.
func (c cell) runConfig(m fl.Method) fl.RunConfig {
	cfg := runConfig(c.p, c.d)
	if c.method == "fedat" && c.spec == nil {
		polyline4(&cfg)
	}
	if c.mutate != nil {
		c.mutate(&cfg)
	}
	applyRoundBudget(&cfg, m)
	return cfg
}

// clients is the cell's population size over all edges.
func (c cell) clients() int {
	if c.d.large {
		return c.p.LargeClients
	}
	return c.p.Clients
}

// env builds one engine's environment over n clients of the cell's
// dataset and cluster, both seeds offset by off (see buildFed). It returns
// the dataset too, for a hierarchy's cloud evaluator.
func (c cell) env(cfg fl.RunConfig, n int, off uint64) (*fl.Env, *dataset.Federated, error) {
	fed, err := buildFed(c.p, c.d, n, off)
	if err != nil {
		return nil, nil, err
	}
	ccfg := clusterConfig(c.p, n)
	ccfg.Seed += off
	if c.cmutate != nil {
		c.cmutate(&ccfg)
	}
	pop, err := simnet.NewPopulation(ccfg)
	if err != nil {
		return nil, nil, err
	}
	env, err := fl.NewEnv(fed, pop, modelFactory(c.p, fed), cfg)
	return env, fed, err
}

// fmtAcc renders an accuracy like the paper's tables.
func fmtAcc(a float64) string { return fmt.Sprintf("%.3f", a) }

// accCell is fmtAcc as a typed cell: exact text plus the raw value.
func accCell(a float64) report.Cell { return report.Num(a, fmtAcc(a)) }

// fmtTime renders seconds.
func fmtTime(t float64) string { return fmt.Sprintf("%.1fs", t) }

// timeCell is fmtTime as a typed cell.
func timeCell(t float64) report.Cell { return report.Num(t, fmtTime(t)) }

// timelineTable renders a smoothed accuracy-vs-time series for several
// runs, sampled at six points — the textual form of the paper's timeline
// figures. Rows are labelled by run.Method under a "method" column or, with
// byKey, by their key in runs under a "run" column. Each sampled cell
// carries the accuracy as its typed value; the full-resolution curves ride
// along as series artifacts (see timelineSeries).
func timelineTable(caption string, runs map[string]*metrics.Run, order []string, window int, byKey bool) *report.Table {
	const rows = 6
	header := []string{"method"}
	if byKey {
		header[0] = "run"
	}
	for i := 0; i < rows; i++ {
		header = append(header, fmt.Sprintf("t%d", i))
	}
	tb := report.NewTable(caption, header...)
	for _, name := range order {
		run, ok := runs[name]
		if !ok {
			continue
		}
		label := run.Method
		if byKey {
			label = name
		}
		sm := run.Smooth(window)
		cells := []report.Cell{report.Str(label)}
		for i := 0; i < rows; i++ {
			if len(sm) == 0 {
				cells = append(cells, report.Str("-"))
				continue
			}
			p := sm[i*(len(sm)-1)/(rows-1)]
			cells = append(cells, report.Num(p.Acc, fmt.Sprintf("%.3f@%.0fs", p.Acc, p.Time)))
		}
		tb.AddRow(cells...)
	}
	return tb
}

// timelineSeries attaches the full-resolution smoothed accuracy curves
// behind a timeline table to the report as data-only series artifacts, so
// machine consumers get the paper figures' actual curves rather than the
// six sampled columns.
func timelineSeries(rep *Report, prefix string, runs map[string]*metrics.Run, order []string, window int) {
	for _, name := range order {
		run, ok := runs[name]
		if !ok {
			continue
		}
		key := name
		if prefix != "" {
			key = prefix + "/" + name
		}
		rep.AddSeries(report.SmoothedAccSeries(key, run, window))
	}
}
