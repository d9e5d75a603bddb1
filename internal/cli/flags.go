// Package cli holds the bodies of cmd/fedsim (Sim), cmd/fedserver (Server)
// and cmd/fedclient (Client), and the one declaration of the flags fedsim
// and fedserver share: name, help text and where the value goes. Each shared
// flag is a flag.Func, so "was it given" is recorded at parse time, and the
// explicit-zero law (zeroOff) lives beside the declarations it governs.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/robust"
	"repro/internal/simnet"
)

// shared is what the common flags bind onto. A flag that was not given
// leaves its destination at the zero value, so the engine's own defaults
// apply.
type shared struct {
	// sel, pacer, agg and name are fl.Compose's override arguments.
	sel, pacer, agg, name string
	// behavior receives the adversarial regime (-attack, -attack-frac,
	// -attack-scale); liveAttack is the same regime in the live fabric's terms.
	behavior simnet.BehaviorConfig
	// cloud receives the edge→cloud policy: -edge-fold, -edge-buffer,
	// -uplink-topk and, where bindServer declared it, -edge-stale-exp.
	cloud edge.CloudConfig

	// given lists, dash included and in command-line order, the flags
	// declared here that were given; givenCloud the ones among them that
	// only an edge topology consumes.
	given, givenCloud []string

	fs     *flag.FlagSet
	attack robust.Kind
	run    []func(*fl.RunConfig) // one setter per engine flag given
}

// zeroOff is the explicit-zero law. RunConfig.Lambda, StalenessConfig.Alpha
// and CloudConfig.StaleExp read 0 as "unset, use the default", so a flag
// GIVEN as 0 — which has always meant "none" — is stored as the field's
// negative off sentinel. An unset flag never gets here.
func zeroOff(v, off float64) float64 {
	if v == 0 {
		return off
	}
	return v
}

// bind declares the shared flags on fs.
func bind(fs *flag.FlagSet) *shared {
	s := &shared{fs: fs}

	// Method composition.
	s.str("select", "override the selection `policy`: random, oversel, tifl, all", &s.sel)
	s.str("pacer", "override the pacing `policy`: sync, tier, client, fedbuff", &s.pacer)
	s.str("agg", "override the aggregation `rule`: avg, eq5, uniform, staleness, asofed, fedasync, asyncsgd, median, trimmed, krum", &s.agg)
	s.str("name", "display `name` for the composed method (default derived from the overrides)", &s.name)
	s.runInt("buffer-k", "fedbuff pacer: buffer `K` arrivals per fold (0 = clients per round)",
		func(c *fl.RunConfig, v int) { c.BufferK = v })

	// The staleness weight function g(s), the one value the async update
	// rules and the adaptive-LR stage both read.
	s.declare("stale-func", "staleness weight `function` g(s) of the async rules and -adaptive-lr: poly, exp, const, hinge (default poly)",
		func(v string) error {
			if !slices.Contains(fl.StaleFuncs, v) {
				return fmt.Errorf("unknown weight function %q (have %v)", v, fl.StaleFuncs)
			}
			s.run = append(s.run, func(c *fl.RunConfig) { c.Staleness.Func = v })
			return nil
		})
	s.declare("stale-alpha", "staleness discount exponent/rate `a` (unset = engine default 0.5; explicit 0 = no discount)",
		func(v string) error {
			a, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return err
			}
			if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
				return fmt.Errorf("want a finite a >= 0, got %v", a)
			}
			s.run = append(s.run, func(c *fl.RunConfig) { c.Staleness.Alpha = zeroOff(a, fl.StaleExpOff) })
			return nil
		})
	s.declareVia(fs.BoolFunc, "adaptive-lr", "scale each dispatch's local learning rate by the staleness weight of its tier/client", func(v string) error {
		on, err := strconv.ParseBool(v)
		s.run = append(s.run, func(c *fl.RunConfig) { c.AdaptiveLR = on })
		return err
	})
	s.runInt("retier-every", "re-tier from observed client latencies every `N` global updates (0 = static tiers)",
		func(c *fl.RunConfig, v int) { c.RetierEvery = v })

	// Adversarial regime and the per-client DP stage.
	s.declare("attack", "attack `regime` a deterministic subset of the population runs: labelflip, scale, freeride", func(v string) error {
		kind, err := robust.ParseKind(v)
		s.attack, s.behavior.AttackKind = kind, v
		return err
	})
	s.float("attack-frac", "`fraction` of the population attacking (e.g. 0.3)", &s.behavior.AttackFrac)
	s.float("attack-scale", "scale attack amplification `factor` (0 = default 10x)", &s.behavior.AttackScale)
	s.runFloat("dp-clip", "per-client DP: clip each local delta to this L2 `norm` (0 = off)",
		func(c *fl.RunConfig, v float64) { c.DPClip = v })
	s.runFloat("dp-noise", "DP Gaussian noise `multiplier` (sigma = multiplier * clip)",
		func(c *fl.RunConfig, v float64) { c.DPNoise = v })

	// The edge→cloud policy of a hierarchy.
	s.cloudFlag("edge-fold", "edge→cloud fold `policy`: sync (barrier, the default) or async (buffered, staleness-weighted)",
		func(v string) error { s.cloud.Fold = v; return nil })
	s.cloudFlag("edge-buffer", "async fold: buffer `K` edge pushes per cloud fold (default 1)",
		func(v string) (err error) { s.cloud.Buffer, err = strconv.Atoi(v); return err })
	s.cloudFlag("uplink-topk", "edge→cloud top-k delta compression: `fraction` of coordinates kept per push (0 = raw, bit-lossless; an edge's setting, the root decodes whichever codec a push names)",
		func(v string) (err error) { s.cloud.TopKFrac, err = strconv.ParseFloat(v, 64); return err })
	return s
}

// bindServer declares the two flags only fedserver has that fall under the
// explicit-zero law.
func (s *shared) bindServer() {
	s.runFloat("lambda", "proximal `coefficient` for Prox methods (Eq. 3); unset inherits the engine default, explicit 0 or negative disables",
		func(c *fl.RunConfig, v float64) { c.Lambda = zeroOff(v, fl.LambdaOff) })
	s.cloudFlag("edge-stale-exp", "async fold: staleness discount `exponent` (unset = default 0.5; explicit 0 = no discount)", func(v string) error {
		a, err := strconv.ParseFloat(v, 64)
		s.cloud.StaleExp = zeroOff(a, fl.StaleExpOff)
		return err
	})
}

// cloudUnused is the usage error for edge→cloud flags given where no
// hierarchy consumes them; without names what would build one.
func (s *shared) cloudUnused(hierarchy bool, without string) error {
	if hierarchy || len(s.givenCloud) == 0 {
		return nil
	}
	return fmt.Errorf("%s given without %s (only a hierarchy has an edge→cloud hop)", strings.Join(s.givenCloud, ", "), without)
}

// applyRun writes every engine flag that was given into cfg and leaves the
// rest of cfg alone.
func (s *shared) applyRun(cfg *fl.RunConfig) {
	for _, set := range s.run {
		set(cfg)
	}
}

// liveAttack is the -attack/-attack-scale regime as the live fabric takes it.
func (s *shared) liveAttack() robust.Attack {
	return robust.Attack{Kind: s.attack, Scale: s.behavior.AttackScale}
}

// declare registers one value flag whose parse records that it was given;
// declareVia is the same over fs.Func or fs.BoolFunc.
func (s *shared) declare(name, usage string, set func(string) error) {
	s.declareVia(s.fs.Func, name, usage, set)
}

func (s *shared) declareVia(register func(name, usage string, fn func(string) error), name, usage string, set func(string) error) {
	register(name, usage, func(v string) error {
		s.given = append(s.given, "-"+name)
		return set(v)
	})
}

func (s *shared) cloudFlag(name, usage string, set func(string) error) {
	s.declare(name, usage, func(v string) error {
		s.givenCloud = append(s.givenCloud, "-"+name)
		return set(v)
	})
}

func (s *shared) str(name, usage string, dst *string) {
	s.declare(name, usage, func(v string) error { *dst = v; return nil })
}

func (s *shared) float(name, usage string, dst *float64) {
	s.declare(name, usage, func(v string) (err error) { *dst, err = strconv.ParseFloat(v, 64); return err })
}

// runInt and runFloat declare an engine flag: giving it records a setter
// that ApplyRun replays onto whichever RunConfig the binary assembles.
func (s *shared) runInt(name, usage string, set func(*fl.RunConfig, int)) {
	s.declare(name, usage, func(v string) error {
		n, err := strconv.Atoi(v)
		s.run = append(s.run, func(c *fl.RunConfig) { set(c, n) })
		return err
	})
}

func (s *shared) runFloat(name, usage string, set func(*fl.RunConfig, float64)) {
	s.declare(name, usage, func(v string) error {
		f, err := strconv.ParseFloat(v, 64)
		s.run = append(s.run, func(c *fl.RunConfig) { set(c, f) })
		return err
	})
}

// parseExit is the exit code of a failed fs.Parse: 0 for -h, 2 for a usage
// error, which fs has already printed.
func parseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}
