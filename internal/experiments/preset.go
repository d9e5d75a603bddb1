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

	// clients for the Chameleon-style experiments (paper: 100) and the
	// large-scale AWS-style ones (paper: 500).
	clients      int
	largeClients int

	// rounds is the global update budget for the standard experiments;
	// largeRounds for the large-scale ones.
	rounds      int
	largeRounds int

	// evalEvery controls evaluation cadence (global updates per eval).
	evalEvery int
	// smoothWindow is the report smoothing (the paper smooths 40 rounds).
	smoothWindow int

	// dataScale picks the synthetic dataset size.
	dataScale dataset.Scale
	// useCNN selects the paper's CNN for the image datasets; false swaps
	// in an MLP, which keeps CI-scale runs fast without changing the FL
	// dynamics under study.
	useCNN bool

	Seed uint64
}

// tiny is the CI preset: everything small enough for unit tests and
// benchmarks.
var tiny = Preset{
	Name:         "tiny",
	clients:      15,
	largeClients: 25,
	rounds:       24,
	largeRounds:  30,
	evalEvery:    3,
	smoothWindow: 2,
	dataScale:    dataset.ScaleSmall,
	useCNN:       false,
	Seed:         42,
}

// small runs in tens of seconds per experiment.
var small = Preset{
	Name:         "small",
	clients:      40,
	largeClients: 80,
	rounds:       120,
	largeRounds:  150,
	evalEvery:    4,
	smoothWindow: 5,
	dataScale:    dataset.ScaleSmall,
	useCNN:       false,
	Seed:         42,
}

// medium is the default CLI preset: paper-scale clients and local work
// (~50 local steps per round, where non-IID client drift is material) with
// the fast MLP stand-in model so a full experiment takes minutes.
var medium = Preset{
	Name:         "medium",
	clients:      100,
	largeClients: 200,
	rounds:       300,
	largeRounds:  200,
	evalEvery:    5,
	smoothWindow: 8,
	dataScale:    dataset.ScaleMedium,
	useCNN:       false,
	Seed:         42,
}

// paper approaches the paper's scales (100/500 clients); expect long runs.
var paper = Preset{
	Name:         "paper",
	clients:      100,
	largeClients: 500,
	rounds:       1000,
	largeRounds:  600,
	evalEvery:    5,
	smoothWindow: 40,
	dataScale:    dataset.ScaleMedium,
	useCNN:       true,
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
	clients:      15625,
	largeClients: 15625,
	rounds:       8,
	largeRounds:  8,
	evalEvery:    2,
	smoothWindow: 2,
	dataScale:    dataset.ScaleSmall,
	useCNN:       false,
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
