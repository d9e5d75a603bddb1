package experiments

import (
	"strings"
	"testing"
)

func TestAblationMisTierTiny(t *testing.T) {
	rep := tinyReport(t, "ablation-mistier")
	if len(rep.Runs) != 6 {
		t.Fatalf("mistier kept %d runs, want 6", len(rep.Runs))
	}
}

func TestAblationLambdaTiny(t *testing.T) {
	rep := tinyReport(t, "ablation-lambda")
	if len(rep.Runs) != 5 {
		t.Fatalf("lambda sweep kept %d runs, want 5", len(rep.Runs))
	}
	if rep.Runs["lambda=0.00"].BestAcc() == rep.Runs["lambda=4.00"].BestAcc() {
		t.Fatal("lambda has no effect between 0 and 4")
	}
}

func TestTheoryValidationTiny(t *testing.T) {
	s := tinyReport(t, "theory").String()
	if !strings.Contains(s, "DECREASING") {
		t.Fatalf("convex gap did not decrease:\n%s", s)
	}
}
