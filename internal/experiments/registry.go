package experiments

import (
	"fmt"
	"maps"
	"slices"
)

// Experiment is a runnable paper artifact reproduction.
type Experiment struct {
	Title string
	Run   func(Preset) (*Report, error)
}

// Registry maps experiment ids to runners, one per paper table/figure.
var Registry = map[string]Experiment{
	"table1": {"Prediction performance and variance", Table1},
	"fig2":   {"Convergence timelines + time to target", Figure2},
	"fig3":   {"Convergence vs non-IID level", Figure3},
	"fig4":   {"Accuracy vs uploaded bytes", Figure4},
	"table2": {"Data transferred to target accuracy", Table2},
	"fig5":   {"Compression precision tradeoff", Figure5},
	"fig6":   {"Weighted vs uniform aggregation", Figure6},
	"fig7":   {"Large-scale FEMNIST", Figure7},
	"fig8":   {"Reddit LSTM", Figure8},
	"fig9":   {"Client participation sweep", Figure9},
	"fig10":  {"Tier-size distributions", Figure10},

	// Extensions beyond the paper's figures (see DESIGN.md §3).
	"ablation-compose": {"Novel policy compositions", AblationCompose},
	"dynamics":         {"Dynamic clients: static vs runtime re-tiering", Dynamics},
	"hierarchy":        {"Hierarchical edge fabric: flat vs K-edge topologies", Hierarchy},
	"ablation-mistier": {"Mis-tiering tolerance", AblationMisTier},
	"robustness":       {"Adversarial robustness: attacks, robust folds, DP", Robustness},
	"staleness":        {"Staleness-aware async family: weight functions, anchors, adaptive LR", Staleness},
	"ablation-lambda":  {"Proximal λ sweep", AblationLambda},
	"theory":           {"Empirical §5 convergence check", TheoryValidation},
	"scale":            {"Million-client simnet: lazy population ladder", Scale},
}

// IDs returns the experiment ids in a stable order.
func IDs() []string { return slices.Sorted(maps.Keys(Registry)) }

// RunByID executes one experiment.
func RunByID(id string, p Preset) (*Report, error) {
	exp, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return exp.Run(p)
}
