package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/robust"
	"repro/internal/simnet"
)

// attackOf is the attack of the kind robust.ParseKind names kind, at the
// default scale; robust's own tests pin each name to its kind.
func attackOf(t *testing.T, kind string) robust.Attack {
	t.Helper()
	k, err := robust.ParseKind(kind)
	if err != nil {
		t.Fatal(err)
	}
	return robust.Attack{Kind: k}
}

// runLiveRobust deploys a method over loopback TCP under a server-side
// attack regime. All clients are honest unless the server's push directs
// otherwise.
func (lf *liveFederation) runLiveRobust(t *testing.T, method fl.Method, cfg fl.RunConfig, attack robust.Attack, attackFrac float64) (*metrics.Run, []float64) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: lf.n,
		Method:     method,
		Run:        cfg,
		Shapes:     lf.shapes,
		W0:         lf.factory(cfg.Seed).WeightsCopy(),
		Dataset:    lf.fed.Name,
		Attack:     attack,
		AttackFrac: attackFrac,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	clientErrs := make([]error, lf.n)
	for i := 0; i < lf.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientErrs[i] = RunClient(ClientConfig{
				Addr: srv.Addr(), ID: uint32(i), LatencyHintMs: 10,
				Data: lf.fed.Clients[i], Net: lf.factory(cfg.Seed),
				Opt: opt.NewAdam(cfg.LearningRate), Codec: cfg.Codec, Seed: cfg.Seed,
				// A server-directed label flip needs the class count
				// (fedclient always fills this).
				Classes: lf.fed.Classes,
			})
		}(i)
	}

	type outcome struct {
		run   *metrics.Run
		final []float64
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		run, final, err := srv.Run()
		done <- outcome{run, final, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("server did not finish in time")
	}
	wg.Wait()
	if out.err != nil {
		t.Fatalf("server error: %v", out.err)
	}
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d error: %v", i, err)
		}
	}
	return out.run, out.final
}

// TestLiveAttackAndDPMatchSimulated is the adversarial cross-fabric
// contract: a sync-paced run with a server-directed label-flip regime AND a
// DP clip+noise stage produces bit-identical final weights over real TCP
// and in the simulator. The attacker subset, the flipped batches, and the
// per-round noise draws must all resolve identically on both fabrics.
func TestLiveAttackAndDPMatchSimulated(t *testing.T) {
	const n = 6
	seed := uint64(13)
	lf := newLiveFederation(t, n, 0, seed)
	cfg := liveCfg(seed)
	cfg.Rounds = 3
	cfg.Codec = codec.NewPolyline(4)
	cfg.DPClip = 1.5
	cfg.DPNoise = 0.3

	// Simulated run: same federation, same attack regime on the same subset.
	pop, err := simnet.NewPopulation(simnet.ClusterConfig{
		NumClients: n,
		Behavior:   simnet.BehaviorConfig{AttackKind: "labelflip", AttackFrac: 0.5},
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := fl.NewEnv(lf.fed, pop, lf.factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var simFinal []float64
	if _, err := fl.Methods["fedavg"].Run(env, captureFinal(&simFinal)); err != nil {
		t.Fatal(err)
	}

	// Live run: the server marks the attacker subset per push.
	_, liveFinal := lf.runLiveRobust(t, fl.Methods["fedavg"], cfg,
		attackOf(t, "labelflip"), 0.5)

	if len(simFinal) == 0 || len(simFinal) != len(liveFinal) {
		t.Fatalf("weight vectors missing or mismatched: sim=%d live=%d", len(simFinal), len(liveFinal))
	}
	for i := range simFinal {
		if simFinal[i] != liveFinal[i] {
			t.Fatalf("weight %d diverged between fabrics under attack+DP: sim=%v live=%v", i, simFinal[i], liveFinal[i])
		}
	}
}

// TestLiveRobustFoldOverLoopback deploys a composed robust-fold method —
// plain FedAvg pacing with a coordinate-median fold — against a
// server-directed scaled-update adversary. The run must complete and learn
// something (the model moves) despite a third of the population shipping
// 10x-amplified deltas.
func TestLiveRobustFoldOverLoopback(t *testing.T) {
	m, err := fl.Compose("fedavg", "", "", "median", "fedavg+median")
	if err != nil {
		t.Fatal(err)
	}
	lf := newLiveFederation(t, 6, 0, 23)
	cfg := liveCfg(17)
	cfg.Rounds = 3
	cfg.ClientsPerRound = 4
	run, final := lf.runLiveRobust(t, m, cfg, attackOf(t, "scale"), 0.34)
	if run.GlobalRounds < cfg.Rounds {
		t.Fatalf("only %d global rounds completed", run.GlobalRounds)
	}
	if !moved(lf.factory(cfg.Seed).WeightsCopy(), final) {
		t.Fatal("global model never moved")
	}
}
