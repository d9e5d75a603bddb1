package simnet

import (
	"math"
	"testing"
)

// Part returns the delay part of client id without materializing it.
func (p *Population) Part(id int) int { return int(p.part[id]) }

// NextOnline returns the earliest time >= t at which the client is online
// (+Inf if it never is again): the runtime-side reference for
// Population.NextOnline.
func (c *ClientRuntime) NextOnline(t float64) float64 {
	if c.churn != nil {
		t = c.churn.NextOnline(t)
	}
	if t >= c.DropAt {
		return inf
	}
	return t
}

// ExpectedLatency is the runtime-side reference for
// Population.ExpectedLatency: the compute time for a nominal round plus the
// mean injected delay.
func (c *ClientRuntime) ExpectedLatency(batchSteps int) float64 {
	return c.ComputeTime(batchSteps) + (c.DelayLo+c.DelayHi)/2
}

// materializeAll builds every client's runtime, in id order.
func materializeAll(p *Population) []*ClientRuntime {
	out := make([]*ClientRuntime, p.NumClients())
	for id := range out {
		out[id] = p.Materialize(id)
	}
	return out
}

// clients is NewPopulation with every client materialized.
func clients(cfg ClusterConfig) ([]*ClientRuntime, error) {
	p, err := NewPopulation(cfg)
	if err != nil {
		return nil, err
	}
	return materializeAll(p), nil
}

// populationConfigs spans the regimes the lazy derivation must reproduce:
// the static paper population, explicit part sizes, and every dynamic
// regime at once (drift + churn + attack, uniform and tail).
func populationConfigs() map[string]ClusterConfig {
	return map[string]ClusterConfig{
		"static": {
			NumClients: 40, NumUnstable: 6, DropHorizon: 900,
			SecPerBatch: 0.08, UpBW: 1 << 20, DownBW: 1 << 20, ServerBW: 8 << 20,
			Seed: 11,
		},
		"partsizes": {
			NumClients: 30, PartSizes: []int{10, 8, 6, 4, 2},
			NumUnstable: 3, SecPerBatch: 0.05, Seed: 7,
		},
		"dynamic": {
			NumClients: 36, NumUnstable: 4, DropHorizon: 1500,
			SecPerBatch: 0.06, UpBW: 1 << 20, DownBW: 1 << 20, ServerBW: 8 << 20,
			Seed: 23,
			Behavior: BehaviorConfig{
				DriftMag: 0.2, DriftInterval: 40,
				ChurnFrac:  0.3,
				AttackFrac: 0.25, AttackKind: "scale", AttackScale: -3,
			},
		},
		"tail-attack": {
			NumClients: 25, NumUnstable: 2, SecPerBatch: 0.05, Seed: 5,
			Behavior: BehaviorConfig{
				AttackFrac: 0.3, AttackKind: "labelflip", AttackTail: true,
			},
		},
	}
}

// TestPopulationMatchesEagerCluster pins the lazy contract: a client
// materialized on demand from (seed, id) is byte-for-byte the client the
// eager reference construction builds — same part, speed, drop time,
// same delay stream state, same drift multipliers and churn windows, same
// attack role.
func TestPopulationMatchesEagerCluster(t *testing.T) {
	for name, cfg := range populationConfigs() {
		t.Run(name, func(t *testing.T) {
			eager, err := newClusterEager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pop, err := NewPopulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Touch lazy clients in a scrambled order: derivation must not
			// depend on materialization order.
			n := cfg.NumClients
			for j := 0; j < n; j++ {
				id := (j*17 + 5) % n
				e, l := eager[id], pop.Materialize(id)
				if e.ID != l.ID || e.Part != l.Part {
					t.Fatalf("client %d: part %d vs %d", id, e.Part, l.Part)
				}
				if e.DelayLo != l.DelayLo || e.DelayHi != l.DelayHi {
					t.Fatalf("client %d: delay range (%v,%v) vs (%v,%v)", id, e.DelayLo, e.DelayHi, l.DelayLo, l.DelayHi)
				}
				if e.SecPerBatch != l.SecPerBatch {
					t.Fatalf("client %d: SecPerBatch %v vs %v", id, e.SecPerBatch, l.SecPerBatch)
				}
				if e.UpBW != l.UpBW || e.DownBW != l.DownBW {
					t.Fatalf("client %d: link speeds differ", id)
				}
				if e.DropAt != l.DropAt && !(math.IsInf(e.DropAt, 1) && math.IsInf(l.DropAt, 1)) {
					t.Fatalf("client %d: DropAt %v vs %v", id, e.DropAt, l.DropAt)
				}
				if e.Attack != l.Attack {
					t.Fatalf("client %d: attack %+v vs %+v", id, e.Attack, l.Attack)
				}
				// Consumable delay stream: identical draw sequences.
				for k := 0; k < 5; k++ {
					if ed, ld := e.RoundDelay(), l.RoundDelay(); ed != ld {
						t.Fatalf("client %d draw %d: delay %v vs %v", id, k, ed, ld)
					}
				}
				// Drift multipliers are pure in (seed, t); probe a few times.
				for _, at := range []float64{0, 35, 90, 400} {
					if em, lm := e.SpeedMultiplier(at), l.SpeedMultiplier(at); em != lm {
						t.Fatalf("client %d: drift at t=%v %v vs %v", id, at, em, lm)
					}
				}
				// Churn windows: probe availability across the horizon.
				for at := 0.0; at < 2000; at += 93 {
					if ea, la := e.Available(at), l.Available(at); ea != la {
						t.Fatalf("client %d: available(%v) %v vs %v", id, at, ea, la)
					}
					if en, ln := e.NextOnline(at), l.NextOnline(at); en != ln {
						t.Fatalf("client %d: NextOnline(%v) %v vs %v", id, at, en, ln)
					}
				}
			}
		})
	}
}

// TestPopulationPureQueries pins the no-materialization query surface
// against the materialized runtime: Available/NextOnline/ExpectedLatency/
// Part/Speed answered from the index tables must agree with the full
// ClientRuntime, and answering them must not build runtimes.
func TestPopulationPureQueries(t *testing.T) {
	for name, cfg := range populationConfigs() {
		t.Run(name, func(t *testing.T) {
			queried, err := NewPopulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			materialized, err := NewPopulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < cfg.NumClients; id++ {
				rt := materialized.Materialize(id)
				if got := queried.Part(id); got != rt.Part {
					t.Fatalf("client %d: Part %d vs runtime %d", id, got, rt.Part)
				}
				if got := queried.SecPerBatch(id); got != rt.SecPerBatch {
					t.Fatalf("client %d: SecPerBatch %v vs runtime %v", id, got, rt.SecPerBatch)
				}
				for _, steps := range []int{1, 9} {
					if got, want := queried.ExpectedLatency(id, steps), rt.ExpectedLatency(steps); got != want {
						t.Fatalf("client %d: ExpectedLatency(%d) %v vs %v", id, steps, got, want)
					}
				}
				for at := 0.0; at < 1200; at += 111 {
					if got, want := queried.Available(id, at), rt.Available(at); got != want {
						t.Fatalf("client %d: Available(%v) %v vs %v", id, at, got, want)
					}
					if got, want := queried.NextOnline(id, at), rt.NextOnline(at); got != want {
						t.Fatalf("client %d: NextOnline(%v) %v vs %v", id, at, got, want)
					}
				}
			}
			if got := queried.Materialized(); got != 0 {
				t.Fatalf("pure queries materialized %d runtimes; want 0", got)
			}
		})
	}
}

// TestPopulationValidation: NewPopulation rejects what the eager reference
// rejects, and a population too large for its int32 id tables — before it allocates
// them.
func TestPopulationValidation(t *testing.T) {
	rows := map[string]ClusterConfig{
		"zero clients":        {NumClients: 0},
		"too few part sizes":  {NumClients: 10, PartSizes: []int{3, 3}},
		"part sizes sum":      {NumClients: 10, PartSizes: []int{2, 2, 2, 2, 3}},
		"too many unstable":   {NumClients: 3, NumUnstable: 5},
		"unknown attack kind": {NumClients: 10, Behavior: BehaviorConfig{AttackFrac: 0.2, AttackKind: "bogus"}},
	}
	// The bound is only reachable where int is wider than int32.
	if huge := int64(math.MaxInt32) + 1; int64(int(huge)) == huge {
		rows["more clients than int32 ids"] = ClusterConfig{NumClients: int(huge)}
	}
	for name, cfg := range rows {
		t.Run(name, func(t *testing.T) {
			if _, err := NewPopulation(cfg); err == nil {
				t.Fatalf("NewPopulation accepted %+v", cfg)
			}
		})
	}
}

// TestPopulationResetRewindsTouchedStreams: after Reset, a touched client's
// delay stream replays.
func TestPopulationResetRewindsTouchedStreams(t *testing.T) {
	cfg := populationConfigs()["static"]
	pop, err := NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := pop.Materialize(3)
	first := []float64{c.RoundDelay(), c.RoundDelay(), c.RoundDelay()}
	pop.Reset()
	for i, want := range first {
		if got := c.RoundDelay(); got != want {
			t.Fatalf("draw %d after Reset: %v, want %v", i, got, want)
		}
	}
}
