package cli

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/robust"
)

// TestBind is the explicit-zero law's test: over a fresh FlagSet per case,
// an unset flag leaves the engine config at its zero value (so the engine's
// defaults apply), a flag given as 0 lands on the field's off sentinel, and
// everything else arrives where the binaries read it.
func TestBind(t *testing.T) {
	for _, c := range []struct {
		name      string
		args      []string
		run       fl.RunConfig // what ApplyRun makes of a zero RunConfig
		cloud     edge.CloudConfig
		agg       string
		attack    robust.Attack
		given     []string
		wantError bool
	}{
		{name: "unset"},
		{name: "explicit zero stale-alpha", args: []string{"-stale-alpha", "0"},
			run:   fl.RunConfig{Staleness: fl.StalenessConfig{Alpha: fl.StaleExpOff}},
			given: []string{"-stale-alpha"}},
		{name: "explicit zero lambda", args: []string{"-lambda=0"},
			run:   fl.RunConfig{Lambda: fl.LambdaOff},
			given: []string{"-lambda"}},
		{name: "explicit zero edge-stale-exp", args: []string{"-edge-stale-exp", "0"},
			cloud: edge.CloudConfig{StaleExp: fl.StaleExpOff},
			given: []string{"-edge-stale-exp"}},
		{name: "non-zero values pass through", args: []string{"-stale-alpha", "0.3", "-lambda", "0.1", "-edge-stale-exp", "0.7"},
			run:   fl.RunConfig{Lambda: 0.1, Staleness: fl.StalenessConfig{Alpha: 0.3}},
			cloud: edge.CloudConfig{StaleExp: 0.7},
			given: []string{"-stale-alpha", "-lambda", "-edge-stale-exp"}},
		// -agg names a rule; g(s) is the run's, for the fold and the
		// adaptive-LR stage alike.
		{name: "agg rule beside stale flags", args: []string{"-agg", "asyncsgd", "-stale-func", "exp", "-stale-alpha", "0.3"},
			run:   fl.RunConfig{Staleness: fl.StalenessConfig{Func: fl.StaleFuncExp, Alpha: 0.3}},
			agg:   "asyncsgd",
			given: []string{"-agg", "-stale-func", "-stale-alpha"}},
		{name: "engine knobs", args: []string{"-buffer-k", "4", "-retier-every", "8", "-adaptive-lr", "-dp-clip", "1.5", "-dp-noise", "0.1"},
			run:   fl.RunConfig{BufferK: 4, RetierEvery: 8, AdaptiveLR: true, DPClip: 1.5, DPNoise: 0.1},
			given: []string{"-buffer-k", "-retier-every", "-adaptive-lr", "-dp-clip", "-dp-noise"}},
		{name: "cloud policy", args: []string{"-edge-fold", "async", "-edge-buffer", "2", "-uplink-topk", "0.25"},
			cloud: edge.CloudConfig{Fold: edge.FoldAsync, Buffer: 2, TopKFrac: 0.25},
			given: []string{"-edge-fold", "-edge-buffer", "-uplink-topk"}},
		{name: "attack", args: []string{"-attack", "scale", "-attack-scale", "5", "-attack-frac", "0.3"},
			attack: robust.Attack{Kind: mustKind("scale"), Scale: 5},
			given:  []string{"-attack", "-attack-scale", "-attack-frac"}},
		{name: "unknown attack kind", args: []string{"-attack", "bogus"}, wantError: true},
		{name: "malformed number", args: []string{"-buffer-k", "four"}, wantError: true},
		{name: "unknown stale-func", args: []string{"-stale-func", "bogus"}, wantError: true},
		{name: "negative stale-alpha", args: []string{"-stale-alpha", "-0.5"}, wantError: true},
		{name: "NaN stale-alpha", args: []string{"-stale-alpha", "NaN"}, wantError: true},
		{name: "infinite stale-alpha", args: []string{"-stale-alpha", "+Inf"}, wantError: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			s := bind(fs)
			s.BindServer()
			err := fs.Parse(c.args)
			if c.wantError {
				if err == nil {
					t.Fatal("parse accepted the arguments")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var run fl.RunConfig
			s.ApplyRun(&run)
			if !reflect.DeepEqual(run, c.run) {
				t.Errorf("RunConfig = %+v, want %+v", run, c.run)
			}
			if !reflect.DeepEqual(s.Cloud, c.cloud) {
				t.Errorf("Cloud = %+v, want %+v", s.Cloud, c.cloud)
			}
			if s.Agg != c.agg {
				t.Errorf("Agg = %q, want %q", s.Agg, c.agg)
			}
			if s.Attack() != c.attack {
				t.Errorf("Attack = %+v, want %+v", s.Attack(), c.attack)
			}
			if c.attack.Active() && (s.Behavior.AttackKind != "scale" || s.Behavior.AttackScale != 5 || s.Behavior.AttackFrac != 0.3) {
				t.Errorf("Behavior = %+v does not carry the attack regime", s.Behavior)
			}
			if !reflect.DeepEqual(s.Given, c.given) {
				t.Errorf("Given = %v, want %v", s.Given, c.given)
			}
		})
	}
}

// mustKind is the attack kind robust.ParseKind names s; robust's own tests
// pin each name to its kind.
func mustKind(s string) robust.Kind {
	k, err := robust.ParseKind(s)
	if err != nil {
		panic(err)
	}
	return k
}

// TestApplyRunLeavesTheRestAlone: only the flags given overwrite the
// RunConfig a binary assembled, and only the edge→cloud flags count as
// GivenCloud.
func TestApplyRunLeavesTheRestAlone(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := bind(fs)
	if err := fs.Parse([]string{"-buffer-k", "3", "-uplink-topk", "0.5"}); err != nil {
		t.Fatal(err)
	}
	run := fl.RunConfig{Rounds: 7, BufferK: 9, RetierEvery: 2}
	s.ApplyRun(&run)
	if want := (fl.RunConfig{Rounds: 7, BufferK: 3, RetierEvery: 2}); !reflect.DeepEqual(run, want) {
		t.Fatalf("RunConfig = %+v, want %+v", run, want)
	}
	if want := []string{"-uplink-topk"}; !reflect.DeepEqual(s.GivenCloud, want) {
		t.Fatalf("GivenCloud = %v, want %v", s.GivenCloud, want)
	}
}
