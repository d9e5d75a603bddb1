package experiments

import (
	"fmt"

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

// buildFed constructs the federated dataset for a spec.
func buildFed(p Preset, d dsSpec) (*dataset.Federated, error) {
	clients := p.Clients
	if d.large {
		clients = p.LargeClients
	}
	return buildFedSized(p, d, clients, 0)
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
func clusterConfig(p Preset, numClients int, partSizes []int) simnet.ClusterConfig {
	return simnet.ClusterConfig{
		NumClients:  numClients,
		PartSizes:   partSizes,
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
// method's pacing granularity — one definition shared by scheduler cells
// and RunComposedDynamics, so -compose runs stay comparable to cached
// experiment cells. Evaluation cadence grows with the round cap, but only
// half as fast: cheap-update methods produce updates faster in TIME too,
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

// buildEnvParts assembles a ready environment for (preset, dataset spec)
// with an explicit tier-size distribution (the Figure 10 configurations)
// and optional RunConfig mutation.
func buildEnvParts(p Preset, d dsSpec, partSizes []int, mutate func(*fl.RunConfig)) (*fl.Env, error) {
	return buildEnvFull(p, d, partSizes, mutate, nil)
}

// buildEnvFull is the common body: explicit tier sizes, a RunConfig
// mutation, and a ClusterConfig mutation (the dynamics experiments switch
// on drift/churn behavior through the latter).
func buildEnvFull(p Preset, d dsSpec, partSizes []int, mutate func(*fl.RunConfig), cmutate func(*simnet.ClusterConfig)) (*fl.Env, error) {
	fed, err := buildFed(p, d)
	if err != nil {
		return nil, err
	}
	cfg := runConfig(p, d)
	if mutate != nil {
		mutate(&cfg)
	}
	ccfg := clusterConfig(p, len(fed.Clients), partSizes)
	if cmutate != nil {
		cmutate(&ccfg)
	}
	cluster, err := simnet.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	return fl.NewEnv(fed, cluster, modelFactory(p, fed), cfg)
}

// simulateCell executes one scheduler cell on a fresh environment
// (identical dataset, cluster and seed for every cell sharing a preset and
// spec). Every method shares the same time budget; round caps and
// evaluation cadence scale with the method's update granularity so
// evaluation counts stay comparable.
func simulateCell(c cell) (*metrics.Run, error) {
	acquireSlot() // the global -workers budget, shared by every batch
	defer releaseSlot()
	method, err := c.methodSpec()
	if err != nil {
		return nil, err
	}
	env, err := buildEnvFull(c.p, c.d, nil, func(cfg *fl.RunConfig) {
		if c.method == "fedat" {
			// §6: FedAT uses polyline precision 4 throughout the
			// evaluation; baselines transmit raw models. Experiment
			// variants (Figure 5) may override via mutate.
			cfg.Codec = codec.NewPolyline(4)
		}
		if c.mutate != nil {
			c.mutate(cfg)
		}
		applyRoundBudget(cfg, method)
	}, c.cmutate)
	if err != nil {
		return nil, err
	}
	simulations.Add(1)
	return method.Run(env)
}

// ComposeDynamics is what fedsim's compose mode lays over the standard
// testbed, in the two shapes the testbed is built from. The zero value
// runs the static testbed.
type ComposeDynamics struct {
	// Run writes the engine-side knobs (re-tiering, DP, fedbuff buffer,
	// staleness, adaptive LR) into the preset's RunConfig; nil leaves it
	// alone.
	Run func(*fl.RunConfig)
	// Behavior is the population regime: DriftMag, ChurnFrac and the
	// Attack* fields are the caller's; the drift interval, clamp and churn
	// windows are always the dynamics experiment's.
	Behavior simnet.BehaviorConfig
}

func (dyn ComposeDynamics) applyRun(cfg *fl.RunConfig) {
	if dyn.Run != nil {
		dyn.Run(cfg)
	}
}

func (dyn ComposeDynamics) behavior() simnet.BehaviorConfig {
	b := dyn.Behavior
	b.DriftInterval, b.DriftClamp = dynBehavior.DriftInterval, dynBehavior.DriftClamp
	b.ChurnOn, b.ChurnOff = dynBehavior.ChurnOn, dynBehavior.ChurnOff
	return b
}

// RunComposedDynamics runs an explicit policy composition on the standard
// ablation testbed (cifar10, 2 classes per client) at preset p — cmd/fedsim's
// -compose mode, where novel method variants are assembled from flags —
// over an optionally drifting, churning (and possibly adversarial)
// population with runtime re-tiering. The round cap and evaluation cadence
// scale with the composition's pacer exactly as they do for registry
// methods, so results are comparable to the cached experiment cells.
// Observers subscribe to the run's event stream.
func RunComposedDynamics(p Preset, m fl.Method, dyn ComposeDynamics, obs ...fl.Observer) (*metrics.Run, error) {
	return simulateDirect(func() (*metrics.Run, error) {
		env, err := buildEnvFull(p, dsSpec{name: "cifar10", classesPerClient: 2}, nil,
			func(cfg *fl.RunConfig) {
				dyn.applyRun(cfg)
				applyRoundBudget(cfg, m)
			},
			func(cc *simnet.ClusterConfig) {
				cc.Behavior = dyn.behavior()
			})
		if err != nil {
			return nil, err
		}
		return m.Run(env, obs...)
	})
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
