package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files from the current renderer:
//
//	go test ./internal/experiments -run TestGoldenText -update
//
// Only do this for a deliberate output change; the goldens exist to prove
// the text renderer reproduces the pre-artifact-model reports byte for
// byte.
var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenIDs are the experiments whose tiny-preset text output is pinned:
// a table-heavy report (table1), a timeline + free-text report (fig2), a
// variant sweep (ablation-lambda), the edge-topology comparison (hierarchy
// — its flat and edge1 rows must stay bit-identical), the adversarial
// grid (robustness — pins each fold family's degradation curve and the
// tiering×attackers comparison) and the lazy-population ladder (scale —
// its deterministic columns pin the lazy substrate's short-population
// runs; the machine-dependent wall/heap figures are data-only scalars and
// never reach the text), and the async-family sweep (staleness — pins the
// weight-function × discount grid, the per-update-vs-batch anchor
// comparison and the adaptive-LR stage), and the Reddit LSTM (fig8 — the
// only model with a Dropout layer, so the only report that depends on the
// per-(client, round) mask streams TrainLocal reseeds).
var goldenIDs = []string{"table1", "fig2", "ablation-lambda", "hierarchy", "robustness", "scale", "staleness", "fig8"}

func TestGoldenText(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact regeneration; the -race -short CI pass covers the scheduler tests")
	}
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := RunByID(id, Tiny)
			if err != nil {
				t.Fatal(err)
			}
			got := rep.String()
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Fatalf("%s text output diverged from golden (len %d vs %d):\n--- got ---\n%s\n--- want ---\n%s",
					id, len(got), len(want), got, want)
			}
		})
	}
}
