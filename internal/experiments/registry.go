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
	"table1": {"Prediction performance and variance", table1},
	"fig2":   {"Convergence timelines + time to target", figure2},
	"fig3":   {"Convergence vs non-IID level", figure3},
	"fig4":   {"Accuracy vs uploaded bytes", figure4},
	"table2": {"Data transferred to target accuracy", table2},
	"fig5":   {"Compression precision tradeoff", figure5},
	"fig6":   {"Weighted vs uniform aggregation", figure6},
	"fig7":   {"Large-scale FEMNIST", figure7},
	"fig8":   {"Reddit LSTM", figure8},
	"fig9":   {"Client participation sweep", figure9},
	"fig10":  {"Tier-size distributions", figure10},

	// Extensions beyond the paper's figures (see DESIGN.md §3).
	"ablation-compose": {"Novel policy compositions", ablationCompose},
	"dynamics":         {"Dynamic clients: static vs runtime re-tiering", dynamics},
	"hierarchy":        {"Hierarchical edge fabric: flat vs K-edge topologies", hierarchy},
	"ablation-mistier": {"Mis-tiering tolerance", ablationMisTier},
	"robustness":       {"Adversarial robustness: attacks, robust folds, DP", robustness},
	"staleness":        {"Staleness-aware async family: weight functions, anchors, adaptive LR", staleness},
	"ablation-lambda":  {"Proximal λ sweep", ablationLambda},
	"theory":           {"Empirical §5 convergence check", theoryValidation},
	"scale":            {"Million-client simnet: lazy population ladder", scale},
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
