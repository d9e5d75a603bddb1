package fl

import (
	"math"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// testEnv builds a small but non-trivial environment: 20 clients over the
// Fashion-MNIST stand-in with the paper's five delay tiers.
func testEnv(t *testing.T, classesPerClient int, cfg RunConfig) *Env {
	t.Helper()
	env, _ := testEnvParts(t, classesPerClient, cfg)
	return env
}

// testEnvParts is testEnv returning the retained shards as well, which
// tests of local training take.
func testEnvParts(t *testing.T, classesPerClient int, cfg RunConfig) (*Env, *dataset.Federated) {
	t.Helper()
	return testEnvWidth(t, classesPerClient, cfg, 16)
}

// testEnvWidth is testEnvParts with an MLP of the given hidden width.
func testEnvWidth(t *testing.T, classesPerClient int, cfg RunConfig, hidden int) (*Env, *dataset.Federated) {
	t.Helper()
	fed, err := dataset.FashionLike(20, classesPerClient, dataset.ScaleSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := simnet.NewPopulation(simnet.ClusterConfig{
		NumClients:  20,
		NumUnstable: 2,
		DropHorizon: 2000,
		SecPerBatch: 0.05,
		UpBW:        1 << 20,
		DownBW:      1 << 20,
		ServerBW:    8 << 20,
		Seed:        cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	factory := func(seed uint64) *nn.Network { return nn.NewMLP(rng.New(seed), fed.InDim, hidden, fed.Classes) }
	env, err := NewEnv(fed, pop, factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, fed
}

func testFactory(fed *dataset.Federated) ModelFactory {
	return func(seed uint64) *nn.Network {
		return nn.NewMLP(rng.New(seed), fed.InDim, 16, fed.Classes)
	}
}

// testLocalClient is client id of the test federation as a standalone
// trainer, the way the live transport builds one.
func testLocalClient(fed *dataset.Federated, id int, cfg RunConfig) *Client {
	return NewLocalClient(id, fed.Clients[id], testFactory(fed)(cfg.Seed), opt.NewAdam(cfg.LearningRate), cfg.Seed)
}

func baseCfg() RunConfig {
	return RunConfig{
		Rounds:          40,
		ClientsPerRound: 5,
		LocalEpochs:     2,
		BatchSize:       8,
		Lambda:          0.4,
		LearningRate:    0.01,
		NumTiers:        5,
		EvalEvery:       4,
		Seed:            3,
	}
}

func TestAllMethodsLearn(t *testing.T) {
	for _, name := range MethodNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := baseCfg()
			env := testEnv(t, 0, cfg) // IID: every method should learn
			run := mustRun(t, name, env)
			if run.GlobalRounds == 0 {
				t.Fatal("no global rounds completed")
			}
			if len(run.Points) == 0 {
				t.Fatal("no evaluations recorded")
			}
			if best := run.BestAcc(); best < 0.18 {
				t.Fatalf("%s best accuracy %.3f, want > chance (0.1) by margin", name, best)
			}
			if run.UpBytes <= 0 || run.DownBytes <= 0 {
				t.Fatalf("%s has no communication: up=%d down=%d", name, run.UpBytes, run.DownBytes)
			}
		})
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() ([]float64, int64) {
		cfg := baseCfg()
		cfg.Rounds = 15
		env := testEnv(t, 2, cfg)
		r := mustRun(t, "fedat", env)
		accs := make([]float64, len(r.Points))
		for i, p := range r.Points {
			accs[i] = p.Acc
		}
		return accs, r.UpBytes
	}
	a1, b1 := run()
	a2, b2 := run()
	if b1 != b2 {
		t.Fatalf("byte totals differ: %d vs %d", b1, b2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("eval counts differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("accuracy series diverges at %d: %v vs %v", i, a1[i], a2[i])
		}
	}
}

func TestFedATCompressionReducesBytes(t *testing.T) {
	cfg := baseCfg()
	cfg.Rounds = 30
	envRaw := testEnv(t, 2, cfg)
	rawRun := mustRun(t, "fedat", envRaw)

	cfg2 := cfg
	cfg2.Codec = codec.NewPolyline(4)
	envPoly := testEnv(t, 2, cfg2)
	polyRun := mustRun(t, "fedat", envPoly)

	if polyRun.UpBytes >= rawRun.UpBytes {
		t.Fatalf("polyline upload %d not below raw %d", polyRun.UpBytes, rawRun.UpBytes)
	}
	// The paper reports up to 3.5× compression; at minimum expect 1.5×.
	ratio := float64(rawRun.UpBytes) / float64(polyRun.UpBytes)
	if ratio < 1.5 {
		t.Fatalf("compression ratio only %.2f", ratio)
	}
	// The paper's claim is that precision 4 preserves accuracy: the
	// compressed run must track the uncompressed one, not diverge.
	if diff := math.Abs(polyRun.BestAcc() - rawRun.BestAcc()); diff > 0.15 {
		t.Fatalf("compression changed accuracy too much: poly=%.3f raw=%.3f",
			polyRun.BestAcc(), rawRun.BestAcc())
	}
}

func TestFedATUpdatesFasterThanFedAvg(t *testing.T) {
	// With heavy stragglers, each FedAvg round is gated by the slowest
	// selected client (often a 20–30s-delay tier-5 member), while FedAT's
	// update stream is dominated by the fast tiers. For an equal global
	// update budget FedAT's virtual clock must advance far less — the
	// mechanism behind the paper's Figure 2 speedups.
	cfg := baseCfg()
	cfg.Rounds = 60
	cfg.EvalEvery = 2
	envA := testEnv(t, 0, cfg)
	fedat := mustRun(t, "fedat", envA)
	envB := testEnv(t, 0, cfg)
	fedavg := mustRun(t, "fedavg", envB)

	if fedat.GlobalRounds < cfg.Rounds || fedavg.GlobalRounds < cfg.Rounds/2 {
		t.Fatalf("runs too short: fedat=%d fedavg=%d", fedat.GlobalRounds, fedavg.GlobalRounds)
	}
	perRoundA, perRoundB := fedat.SecPerUpdate(), fedavg.SecPerUpdate()
	if perRoundA*2 > perRoundB {
		t.Fatalf("FedAT %.2fs/update not well below FedAvg %.2fs/update", perRoundA, perRoundB)
	}
	// Early FedAT accuracy is structurally modest: the Eq. 5 weights give
	// the fast tier (which does most early updates) little mass, so short
	// runs sit well below the converged level. Above-chance is the check.
	if fedat.BestAcc() < 0.17 {
		t.Fatalf("FedAT failed to learn: %.3f", fedat.BestAcc())
	}
}

func TestWeightedVsUniformAggregationDiffer(t *testing.T) {
	cfg := baseCfg()
	cfg.Rounds = 12
	envW := testEnv(t, 2, cfg)
	w := mustRun(t, "fedat", envW)

	// The uniform ablation is FedAT under the "uniform" rule, keeping
	// FedAT's name (its RNG stream label) so only the fold weights differ.
	uniform := Methods["fedat"]
	uniform.Update = "uniform"
	u, err := uniform.Run(testEnv(t, 2, cfg))
	if err != nil {
		t.Fatal(err)
	}

	if len(w.Points) == 0 || len(u.Points) == 0 {
		t.Fatal("missing evaluations")
	}
	same := true
	for i := range w.Points {
		if i >= len(u.Points) || w.Points[i].Acc != u.Points[i].Acc {
			same = false
			break
		}
	}
	if same {
		t.Fatal("uniform aggregation produced identical accuracy series — the rule has no effect")
	}
}

func TestTrainLocalFixedSchedule(t *testing.T) {
	cfg := baseCfg()
	env, fed := testEnvParts(t, 0, cfg)
	c := testLocalClient(fed, 0, cfg)
	w0 := env.InitialWeights()
	lc := LocalConfig{Epochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, Lambda: 0.4, Round: 7}
	// TrainLocal reuses its result buffer across calls; copy to compare.
	w1t, s1 := c.TrainLocal(w0, lc)
	w1 := tensor.Copy(w1t)
	w2t, s2 := c.TrainLocal(w0, lc)
	w2 := tensor.Copy(w2t)
	if s1 != s2 {
		t.Fatalf("step counts differ: %d vs %d", s1, s2)
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("same (client, round, weights) produced different results")
		}
	}
	lc.Round = 8
	w3, _ := c.TrainLocal(w0, lc)
	diff := false
	for i := range w1 {
		if w1[i] != w3[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different rounds produced identical mini-batch schedules")
	}
}

func TestTrainLocalProximalPullsTowardAnchor(t *testing.T) {
	cfg := baseCfg()
	env, fed := testEnvParts(t, 0, cfg)
	c := testLocalClient(fed, 1, cfg)
	w0 := env.InitialWeights()
	lc := LocalConfig{Epochs: 4, BatchSize: cfg.BatchSize, Round: 1}
	freeT, _ := c.TrainLocal(w0, lc)
	free := tensor.Copy(freeT) // TrainLocal reuses its result buffer
	lcProx := lc
	lcProx.Lambda = 50 // extreme constraint keeps w near the anchor
	prox, _ := c.TrainLocal(w0, lcProx)
	dFree, dProx := 0.0, 0.0
	for i := range w0 {
		dFree += (free[i] - w0[i]) * (free[i] - w0[i])
		dProx += (prox[i] - w0[i]) * (prox[i] - w0[i])
	}
	if dProx >= dFree {
		t.Fatalf("proximal run moved further (%.4f) than free run (%.4f)", dProx, dFree)
	}
}

func TestLocalConfigSteps(t *testing.T) {
	lc := LocalConfig{Epochs: 3, BatchSize: 10}
	if got := lc.Steps(25); got != 9 {
		t.Fatalf("Steps(25) = %d, want 9", got)
	}
	if got := lc.Steps(0); got != 0 {
		t.Fatalf("Steps(0) = %d", got)
	}
	if got := lc.Steps(10); got != 3 {
		t.Fatalf("Steps(10) = %d, want 3", got)
	}
}

func TestSelectAvailableExcludesDropped(t *testing.T) {
	cfg := baseCfg()
	fab := newDropFabric(testEnv(t, 0, cfg))
	// Force one client offline.
	fab.drop(3, 0)
	ids := []int{3}
	var scratch, picks []int
	if got := selectAvailable(&scratch, &picks, rng.New(1), ids, fab, 1, 5); got != nil {
		t.Fatalf("dropped client selected: %v", got)
	}
	ids = []int{2, 3, 4}
	got := selectAvailable(&scratch, &picks, rng.New(1), ids, fab, 1, 5)
	if len(got) != 2 {
		t.Fatalf("selection %v, want the two online clients", got)
	}
	for _, id := range got {
		if id == 3 {
			t.Fatal("dropped client selected")
		}
	}
}

// onlineFabric answers Available from a predicate and counts the probes;
// selectAvailable asks a fabric nothing else.
type onlineFabric struct {
	Fabric
	online func(id int) bool
	probes int
}

func (f *onlineFabric) Available(id int, _ float64) bool {
	f.probes++
	return f.online(id)
}

// TestSelectAvailableUniform checks the sampling law's distribution over a
// fixed set of seeds: every online id is equally likely to be in a cohort,
// and equally likely to be its first member (chi-square, 31 degrees of
// freedom, 99.9 % critical value — the streams are fixed, so this cannot
// flake); an offline id never is.
func TestSelectAvailableUniform(t *testing.T) {
	const n, k, seeds, perSeed = 40, 6, 8, 500
	fab := &onlineFabric{online: func(id int) bool { return id%5 != 0 }}
	ids := make([]int, n)
	online := 0
	for i := range ids {
		ids[i] = i
		if fab.online(i) {
			online++
		}
	}
	included, first := make([]float64, n), make([]float64, n)
	var scratch, picks []int
	for seed := uint64(1); seed <= seeds; seed++ {
		r := rng.New(seed)
		for trial := 0; trial < perSeed; trial++ {
			sel := selectAvailable(&scratch, &picks, r, ids, fab, 0, k)
			if len(sel) != k {
				t.Fatalf("picked %d of %d online, want %d", len(sel), online, k)
			}
			first[sel[0]]++
			for _, id := range sel {
				included[id]++
			}
		}
	}
	const trials, critical = seeds * perSeed, 61.1 // chi-square(31) at p = 0.001
	for what, c := range map[string]struct {
		counts []float64
		expect float64
	}{
		"inclusion":  {included, trials * k / float64(online)},
		"first pick": {first, trials / float64(online)},
	} {
		chi2 := 0.0
		for id, got := range c.counts {
			if !fab.online(id) {
				if got != 0 {
					t.Fatalf("%s: offline client %d sampled %v times", what, id, got)
				}
				continue
			}
			chi2 += (got - c.expect) * (got - c.expect) / c.expect
		}
		if chi2 > critical {
			t.Errorf("%s counts are not uniform over the online clients: chi-square %.1f > %.1f", what, chi2, critical)
		}
	}
}

// TestSelectAvailableInvariants checks what must hold on every call, across
// tier sizes, cohort sizes on both sides of the online count, and tiers that
// are fully online, partly online and fully offline: ids come back element
// for element, picks are distinct online members, the result is nil iff
// nobody is online (or k <= 0, which draws nothing), every online member is
// returned when k covers them, and at most len(ids) draws are consumed.
func TestSelectAvailableInvariants(t *testing.T) {
	var scratch, picks []int
	r := rng.New(9)
	for _, n := range []int{0, 1, 2, 7, 50} {
		for _, offlineEvery := range []int{0, 3, 1} { // nobody, every third, everybody offline
			fab := &onlineFabric{online: func(id int) bool { return offlineEvery == 0 || id%offlineEvery != 0 }}
			ids := make([]int, n)
			online := map[int]bool{}
			for i := range ids {
				ids[i] = 100 + (i*37)%n // arbitrary ids in arbitrary order
				if fab.online(ids[i]) {
					online[ids[i]] = true
				}
			}
			before := slices.Clone(ids)
			for _, k := range []int{-1, 0, 1, 3, n, n + 5} {
				at := *r
				sel := selectAvailable(&scratch, &picks, r, ids, fab, 0, k)
				draws := 0
				for ; at != *r && draws <= n; draws++ {
					at.Uint64()
				}
				if draws > n || (k <= 0 && draws != 0) {
					t.Fatalf("n=%d k=%d: consumed %d draws", n, k, draws)
				}
				if !slices.Equal(ids, before) {
					t.Fatalf("n=%d k=%d: ids left as %v, were %v", n, k, ids, before)
				}
				want := max(0, min(k, len(online)))
				if len(sel) != want || (sel == nil) != (want == 0) {
					t.Fatalf("n=%d k=%d, %d online: picked %v", n, k, len(online), sel)
				}
				seen := map[int]bool{}
				for _, id := range sel {
					if !online[id] || seen[id] {
						t.Fatalf("n=%d k=%d: picks %v are not distinct online members", n, k, sel)
					}
					seen[id] = true
				}
			}
		}
	}
}

// TestSelectAvailableProbesOnlyCandidates pins the O(k) property itself: a
// cohort of 10 from a 200,000-member tier with a tenth of it offline asks
// the fabric about the candidates it drew — a dozen or so — never about the
// tier.
func TestSelectAvailableProbesOnlyCandidates(t *testing.T) {
	const n, k = 200_000, 10
	fab := &onlineFabric{online: func(id int) bool { return id%10 != 0 }}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	var scratch, picks []int
	r := rng.New(4)
	for round := 0; round < 20; round++ {
		fab.probes = 0
		if sel := selectAvailable(&scratch, &picks, r, ids, fab, 0, k); len(sel) != k {
			t.Fatalf("picked %d, want %d", len(sel), k)
		}
		if fab.probes >= 100 {
			t.Fatalf("%d availability probes for a cohort of %d: selection is walking the tier", fab.probes, k)
		}
	}
}

func TestCommAccounting(t *testing.T) {
	shapes := []codec.ShapeInfo{{Name: "W", Dims: []int{4}}}
	w := []float64{1, 2, 3, 4}
	// Neither builds the message; both must charge exactly its size.
	for _, c := range []codec.Channel{codec.Raw{}, codec.NewPolyline(4)} {
		cm := NewComm(c, shapes)
		msg, err := codec.MarshalModel(c, shapes, w)
		if err != nil {
			t.Fatal(err)
		}
		got, n := cm.transmit(w, true)
		if n != len(msg) {
			t.Fatalf("%s: transmit size %d != marshalled message %d", c.Name(), n, len(msg))
		}
		if cm.Up != int64(n) || cm.Down != 0 {
			t.Fatalf("uplink accounting wrong: up=%d down=%d", cm.Up, cm.Down)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("%s transmit corrupted weights", c.Name())
			}
		}
		cm.Release(got)
		snap, _ := cm.Broadcast(w, 3)
		cm.Release(snap)
		if cm.Down != 3*int64(n) {
			t.Fatalf("broadcast to 3 charged %d bytes down, want %d", cm.Down, 3*n)
		}
		cm.CountControl(10, true)
		if cm.Up != int64(n)+10 {
			t.Fatal("control accounting wrong")
		}
	}
}

// TestCommChannelMatchesWire: for every run codec, Comm hands the receiver
// the bits the real message decodes to — codec.MarshalModel, then
// codec.UnmarshalModelInto — and charges that message's length, in both
// directions and on clamped and long values; once the pool has grown it
// allocates nothing.
func TestCommChannelMatchesWire(t *testing.T) {
	shapes := []codec.ShapeInfo{{Name: "W", Dims: []int{60, 50}}, {Name: "b", Dims: []int{50}}}
	r := rng.New(6)
	w0 := make([]float64, 3050)
	for i := range w0 {
		w0[i] = 0.3 * r.Norm()
	}
	w0[0], w0[1], w0[2], w0[3], w0[4] = math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 12345.678949999

	var comms []*Comm
	for _, c := range []codec.Channel{codec.Raw{}, codec.NewPolyline(4)} {
		cm := NewComm(c, shapes)
		comms = append(comms, cm)
		w, want := slices.Clone(w0), make([]float64, len(w0))
		var up, down int64
		for round, uplink := range []bool{true, false, true} {
			msg, err := codec.MarshalModel(c, shapes, w)
			if err != nil {
				t.Fatal(err)
			}
			if err := codec.UnmarshalModelInto(msg, want); err != nil {
				t.Fatal(err)
			}
			got, n := cm.transmit(w, uplink)
			if uplink {
				up += int64(len(msg))
			} else {
				down += int64(len(msg))
			}
			if n != len(msg) || cm.Up != up || cm.Down != down {
				t.Fatalf("%s round %d: charges %d (up %d, down %d), message is %d (up %d, down %d)",
					c.Name(), round, n, cm.Up, cm.Down, len(msg), up, down)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s round %d: weight %d is %v through the channel, %v over the wire", c.Name(), round, i, got[i], want[i])
				}
			}
			w = append(w[:0], got...) // the next round retransmits the reconstruction
			cm.Release(got)
		}
	}

	skipUnderRace(t)
	for _, cm := range comms {
		if allocs := testing.AllocsPerRun(20, func() {
			out, _, err := cm.TransmitPooled(w0, true)
			if err != nil {
				t.Fatal(err)
			}
			cm.Release(out)
		}); allocs != 0 {
			t.Errorf("%s TransmitPooled allocates %.0f times in steady state", cm.channel.Name(), allocs)
		}
	}
}

// TestCommUploadMatchesTransmit: a simulated upload that waits in a
// fixed-point slot reads back as exactly what transmit hands the server, at
// the same byte charge — with every weight inside int16 at precision 4
// (|w| < 3.27675), with a few outside it on the slot's overflow list, and
// with more than n/4 outside it, held dense. One with a weight that
// overflows int32 (1e6 at precision 4) or is infinite takes transmit's
// float64 path itself. Every upload starts from a buffer of the run's weight
// pool, which upload owns from then on: the pool panics on a second release
// of any buffer, and once the read is released it holds every buffer it
// handed out again. Discarded and read slots are reused, so the steady
// state allocates nothing, overflow entries included.
func TestCommUploadMatchesTransmit(t *testing.T) {
	shapes := []codec.ShapeInfo{{Name: "W", Dims: []int{300}}}
	r := rng.New(8)
	inRange := make([]float64, 300)
	for i := range inRange {
		inRange[i] = 0.4 * r.Norm()
	}
	inRange[7] = math.NaN()
	fewWide := slices.Clone(inRange)
	for _, i := range []int{3, 150, 299} {
		fewWide[i] = 1000 * inRange[i]
	}
	fewWide[40] = 3.27675 // the first tie outside int16
	denseWide := slices.Clone(inRange)
	for i := 0; i < len(denseWide); i += 3 { // 100 > 300/4
		denseWide[i] = 50 + inRange[i]
	}
	overflow := slices.Clone(fewWide)
	overflow[100] = 1e6
	infinite := slices.Clone(inRange)
	infinite[200] = math.Inf(-1)

	// stock puts k fresh buffers in the pool and returns their addresses;
	// holdsAll checks the pool hands back exactly those k, which it can
	// only do if every buffer drawn since came back to it.
	stock := func(pool *tensor.Pool, k int) map[*float64]bool {
		bufs := make([][]float64, k)
		for i := range bufs {
			bufs[i] = pool.Get()
		}
		own := map[*float64]bool{}
		for _, b := range bufs {
			own[&b[0]] = true
			pool.Put(b)
		}
		return own
	}
	holdsAll := func(what string, pool *tensor.Pool, own map[*float64]bool) {
		t.Helper()
		bufs := make([][]float64, len(own))
		for i := range bufs {
			if bufs[i] = pool.Get(); !own[&bufs[i][0]] {
				t.Errorf("%s: the pool got back %d of its %d buffers", what, i, len(own))
			}
		}
		for _, b := range bufs {
			pool.Put(b)
		}
	}

	for name, tc := range map[string]struct {
		w     []float64
		fixed bool
	}{
		"in-range":   {inRange, true},
		"few wide":   {fewWide, true},
		"dense wide": {denseWide, true},
		"overflow":   {overflow, false},
		"infinite":   {infinite, false},
	} {
		cm, ref := NewComm(codec.NewPolyline(4), shapes), NewComm(codec.NewPolyline(4), shapes)
		pool := cm.Pool(len(tc.w))
		own := stock(pool, 2) // the trained buffer and the server's read
		res := TrainResult{Weights: pool.Get()}
		copy(res.Weights, tc.w)
		n := cm.upload(&res)
		if (res.slot != 0) != tc.fixed || (res.Weights == nil) != tc.fixed {
			t.Fatalf("%s: slot %d, weights held %v; want the fixed-point path %v", name, res.slot, res.Weights != nil, tc.fixed)
		}
		want, wn := ref.transmit(tc.w, true)
		if n != wn || cm.Up != ref.Up {
			t.Fatalf("%s: upload charges %d (up %d), transmit %d (up %d)", name, n, cm.Up, wn, ref.Up)
		}
		got := cm.Receive(res)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: weight %d reads back %v, transmit gives %v", name, i, got[i], want[i])
			}
		}
		cm.Release(got)
		holdsAll(name, pool, own)
	}

	skipUnderRace(t)
	cm := NewComm(codec.NewPolyline(4), shapes)
	pool := cm.Pool(len(inRange))
	own := stock(pool, 2)
	var res [2]TrainResult
	// The idle slots are a stack, so the two uploads swap slots every cycle:
	// a run is two cycles, and an allocation in either shows in the count.
	if allocs := testing.AllocsPerRun(20, func() {
		for range 2 {
			res[0].Weights, res[0].slot = pool.Get(), 0
			res[1].Weights, res[1].slot = pool.Get(), 0
			copy(res[0].Weights, inRange)
			copy(res[1].Weights, fewWide)
			for i := range res {
				cm.upload(&res[i])
			}
			cm.Discard(res[0])
			cm.Release(cm.Receive(res[1]))
		}
	}); allocs != 0 {
		t.Errorf("upload, Receive and Discard allocate %.0f times in steady state", allocs)
	}
	holdsAll("steady state", pool, own)
	if len(cm.slots) != 2 || len(cm.free) != 2 {
		t.Errorf("two uploads in flight at a time grew %d slots, %d idle", len(cm.slots), len(cm.free))
	}
	for i := range cm.slots {
		if n := cm.slots[i].Len(); n != 300 {
			t.Errorf("slot %d is sized for %d weights, want 300", i+1, n)
		}
	}
}

func TestEvaluatorWeightsAndVariance(t *testing.T) {
	cfg := baseCfg()
	env := testEnv(t, 2, cfg)
	res := env.Eval.Evaluate(env.InitialWeights())
	if res.Acc < 0 || res.Acc > 1 {
		t.Fatalf("accuracy out of range: %v", res.Acc)
	}
	if res.Variance < 0 {
		t.Fatalf("negative variance: %v", res.Variance)
	}
	if math.IsNaN(res.Loss) {
		t.Fatal("NaN loss")
	}
	// Subset evaluation should match full evaluation when given all ids.
	all := allClientIDs(env.Fabric())
	sub := env.Eval.EvaluateSubset(env.InitialWeights(), all)
	if math.Abs(sub-res.Acc) > 1e-12 {
		t.Fatalf("subset accuracy %v != full %v", sub, res.Acc)
	}
}

func TestEnvValidatesClientCount(t *testing.T) {
	fed, err := dataset.FashionLike(4, 0, dataset.ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := simnet.NewPopulation(simnet.ClusterConfig{NumClients: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	factory := func(seed uint64) *nn.Network {
		return nn.NewMLP(rng.New(seed), fed.InDim, 8, fed.Classes)
	}
	if _, err := NewEnv(fed, pop, factory, RunConfig{}); err == nil {
		t.Fatal("client-count mismatch accepted")
	}
}
