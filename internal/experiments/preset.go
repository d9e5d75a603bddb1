// Package experiments regenerates every table and figure of the FedAT
// paper's evaluation (§7) on the simulated substrate. Each experiment is a
// function from a scale preset to a textual report whose rows mirror what
// the paper plots; DESIGN.md maps experiment ids to paper artifacts.
//
// Absolute numbers differ from the paper (synthetic data, scaled models, a
// virtual cluster); the reproduction target is the SHAPE of each result:
// which method wins, by roughly what factor, and where crossovers happen.
package experiments

import (
	"fmt"

	"repro/internal/dataset"
)

// Preset scales an experiment: client counts, round budgets and model size.
type Preset struct {
	Name string

	// Clients for the Chameleon-style experiments (paper: 100) and the
	// large-scale AWS-style ones (paper: 500).
	Clients      int
	LargeClients int

	// Rounds is the global update budget for the standard experiments;
	// LargeRounds for the large-scale ones.
	Rounds      int
	LargeRounds int

	// EvalEvery controls evaluation cadence (global updates per eval).
	EvalEvery int
	// SmoothWindow is the report smoothing (the paper smooths 40 rounds).
	SmoothWindow int

	// DataScale picks the synthetic dataset size.
	DataScale dataset.Scale
	// UseCNN selects the paper's CNN for the image datasets; false swaps
	// in an MLP, which keeps CI-scale runs fast without changing the FL
	// dynamics under study.
	UseCNN bool

	Seed uint64
}

// tiny is the CI preset: everything small enough for unit tests and
// benchmarks.
var tiny = Preset{
	Name:         "tiny",
	Clients:      15,
	LargeClients: 25,
	Rounds:       24,
	LargeRounds:  30,
	EvalEvery:    3,
	SmoothWindow: 2,
	DataScale:    dataset.ScaleSmall,
	UseCNN:       false,
	Seed:         42,
}

// small runs in tens of seconds per experiment.
var small = Preset{
	Name:         "small",
	Clients:      40,
	LargeClients: 80,
	Rounds:       120,
	LargeRounds:  150,
	EvalEvery:    4,
	SmoothWindow: 5,
	DataScale:    dataset.ScaleSmall,
	UseCNN:       false,
	Seed:         42,
}

// medium is the default CLI preset: paper-scale clients and local work
// (~50 local steps per round, where non-IID client drift is material) with
// the fast MLP stand-in model so a full experiment takes minutes.
var medium = Preset{
	Name:         "medium",
	Clients:      100,
	LargeClients: 200,
	Rounds:       300,
	LargeRounds:  200,
	EvalEvery:    5,
	SmoothWindow: 8,
	DataScale:    dataset.ScaleMedium,
	UseCNN:       false,
	Seed:         42,
}

// paper approaches the paper's scales (100/500 clients); expect long runs.
var paper = Preset{
	Name:         "paper",
	Clients:      100,
	LargeClients: 500,
	Rounds:       1000,
	LargeRounds:  600,
	EvalEvery:    5,
	SmoothWindow: 40,
	DataScale:    dataset.ScaleMedium,
	UseCNN:       true,
	Seed:         42,
}

// huge exists for the scale experiment: its client count is the base of
// the 8x population ladder {c, 8c, 64c}, so 15625 tops the ladder at
// exactly one million simulated clients. Only the lazy-environment
// experiments are meant to run at this preset — an eager experiment at a
// million clients would materialize the population it is the whole point
// not to. Round budgets are bounded accordingly.
var huge = Preset{
	Name:         "huge",
	Clients:      15625,
	LargeClients: 15625,
	Rounds:       8,
	LargeRounds:  8,
	EvalEvery:    2,
	SmoothWindow: 2,
	DataScale:    dataset.ScaleSmall,
	UseCNN:       false,
	Seed:         42,
}

// presets indexes the scale presets by name.
var presets = map[string]Preset{
	"tiny":   tiny,
	"small":  small,
	"medium": medium,
	"paper":  paper,
	"huge":   huge,
}

// PresetByName resolves a preset.
func PresetByName(name string) (Preset, error) {
	p, ok := presets[name]
	if !ok {
		return Preset{}, fmt.Errorf("experiments: unknown preset %q (have tiny, small, medium, paper, huge)", name)
	}
	return p, nil
}
