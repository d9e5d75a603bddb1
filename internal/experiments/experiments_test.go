package experiments

import (
	"fmt"
	"testing"
)

// The experiment tests read the tiny batch (golden_test.go): TestGoldenText
// pins every report's bytes, and the tests here check the properties of the
// runs behind them (every run learns, shared cells are shared, compression
// shrinks payloads) rather than paper-scale numbers.

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	if len(Registry) < len(want) {
		t.Fatalf("registry has %d entries, want >= %d", len(Registry), len(want))
	}
}

func TestRunByIDUnknown(t *testing.T) {
	if _, err := RunByID("nope", tiny); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPresetByName(t *testing.T) {
	p, err := PresetByName("tiny")
	if err != nil || p.Name != "tiny" {
		t.Fatalf("PresetByName(tiny) = %+v, %v", p, err)
	}
	if _, err := PresetByName("bogus"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestTable1Tiny(t *testing.T) {
	rep := tinyReport(t, "table1")
	if len(rep.Runs) < 5*len(table1Specs) {
		t.Fatalf("table1 kept %d runs, want %d", len(rep.Runs), 5*len(table1Specs))
	}
	for key, run := range rep.Runs {
		if run.GlobalRounds == 0 {
			t.Fatalf("run %s completed no rounds", key)
		}
		if run.BestAcc() <= 0 {
			t.Fatalf("run %s has zero accuracy", key)
		}
	}
}

func TestFigure2And4AndTable2ShareRuns(t *testing.T) {
	// These three analyze the same training runs; the cache must serve the
	// one simulation to all of them.
	rep2, rep4, repT2 := tinyReport(t, "fig2"), tinyReport(t, "fig4"), tinyReport(t, "table2")
	k := "cifar10(#2)/fedat"
	if rep2.Runs[k] == nil || rep2.Runs[k] != rep4.Runs[k] || rep4.Runs[k] != repT2.Runs[k] {
		t.Fatal("shared runs were re-simulated instead of cached")
	}
}

func TestFigure3Tiny(t *testing.T) {
	rep := tinyReport(t, "fig3")
	// Every method trains at every non-IID level, IID included.
	if len(rep.Runs) != len(figure3Specs)*len(table1Methods) {
		t.Fatalf("fig3 kept %d runs, want %d", len(rep.Runs), len(figure3Specs)*len(table1Methods))
	}
	for key, run := range rep.Runs {
		if run.GlobalRounds == 0 {
			t.Fatalf("run %s completed no rounds", key)
		}
	}
}

func TestFigure5Tiny(t *testing.T) {
	rep := tinyReport(t, "fig5")
	// Compression must actually reduce bytes vs raw.
	raw := rep.Runs["No Compression"]
	p4 := rep.Runs["Precision 4"]
	if p4.UpBytes >= raw.UpBytes {
		t.Fatalf("precision 4 (%d B) not below raw (%d B)", p4.UpBytes, raw.UpBytes)
	}
	// Lower precision → smaller payloads.
	p3 := rep.Runs["Precision 3"]
	p6 := rep.Runs["Precision 6"]
	if float64(p3.UpBytes)/float64(p3.GlobalRounds) >= float64(p6.UpBytes)/float64(p6.GlobalRounds) {
		t.Fatal("precision 3 payloads not smaller than precision 6")
	}
}

func TestFigure6Tiny(t *testing.T) {
	rep := tinyReport(t, "fig6")
	if rep.Runs["cifar10(#2)/weighted"] == rep.Runs["cifar10(#2)/uniform"] {
		t.Fatal("weighted and uniform runs are the same object")
	}
}

func TestFigure7Tiny(t *testing.T) {
	rep := tinyReport(t, "fig7")
	if len(rep.Runs) != 6 {
		t.Fatalf("fig7 kept %d runs, want 6", len(rep.Runs))
	}
}

func TestFigure8Tiny(t *testing.T) {
	rep := tinyReport(t, "fig8")
	for _, m := range figure8Methods {
		run := rep.Runs[m]
		if run == nil || len(run.Points) == 0 {
			t.Fatalf("fig8 run %s empty", m)
		}
	}
}

func TestFigure9Tiny(t *testing.T) {
	rep := tinyReport(t, "fig9")
	// Every method trains at every participation level on both datasets.
	if want := 2 * len(figure9Participation) * len(figure9Methods); len(rep.Runs) != want {
		t.Fatalf("fig9 kept %d runs, want %d", len(rep.Runs), want)
	}
	for key, run := range rep.Runs {
		if run.GlobalRounds == 0 {
			t.Fatalf("run %s completed no rounds", key)
		}
	}
}

func TestFigure10Tiny(t *testing.T) {
	rep := tinyReport(t, "fig10")
	// All four distributions must actually train.
	for _, cfg := range figure10Configs {
		if rep.Runs[cfg.label].GlobalRounds == 0 {
			t.Fatalf("distribution %s completed no rounds", cfg.label)
		}
	}
}

// TestFigure10UniformIsFigure7FedAT checks that Figure 10 trains each
// distribution as the registry FedAT cell trains at large scale: every
// preset's LargeClients divides by five, so the Uniform split is the
// default one and its record must be Figure 7's FedAT record.
func TestFigure10UniformIsFigure7FedAT(t *testing.T) {
	got := fmt.Sprintf("%+v", *tinyReport(t, "fig10").Runs["Uniform"])
	want := fmt.Sprintf("%+v", *tinyReport(t, "fig7").Runs["fedat"])
	if got != want {
		t.Fatalf("fig10 Uniform record differs from fig7 FedAT:\n--- fig10 ---\n%s\n--- fig7 ---\n%s", got, want)
	}
}

func TestFracSizes(t *testing.T) {
	for _, n := range []int{10, 25, 100, 500} {
		for _, cfg := range figure10Configs {
			sizes := fracSizes(n, cfg.frac)
			total := 0
			for _, s := range sizes {
				if s < 1 {
					t.Fatalf("fracSizes(%d, %s) has empty part: %v", n, cfg.label, sizes)
				}
				total += s
			}
			if total != n {
				t.Fatalf("fracSizes(%d, %s) sums to %d: %v", n, cfg.label, total, sizes)
			}
		}
	}
}
