// Package fl assembles the substrates into runnable federated-learning
// methods. A method is a declarative composition of pluggable policies —
// a selector (who trains), a pacer (when rounds happen), an update rule
// (how updates fold into the global model) and a LocalPolicy (how clients
// train locally) — plus an Observer event stream every run emits. The
// registry expresses the seven methods the paper compares (FedAT and the
// FedAvg, FedProx, TiFL, FedAsync, ASO-Fed and over-selection baselines)
// as such compositions, and novel variants are just different field
// values. The engine is generic over an execution Fabric: Method.Run uses
// the discrete-event simulator (one clock, one straggler model, bit-exact
// reproducibility), and Method.RunOn drives the identical policy loop over
// any other fabric — internal/transport's live TCP deployment being the
// second.
package fl

import (
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/robust"
	"repro/internal/tensor"
)

// Client couples one participant's local data with the training machinery
// that runs its round: a model replica, an optimizer and scratch. The
// machinery carries nothing from one TrainLocal to the next — weights are
// overwritten, optimizer moments and dropout masks restart — so the
// simulated environment builds min(GOMAXPROCS, N) Clients as its replicas
// and rebinds one (data, Attack, streams) for every cohort member it
// trains. A Client is owned by one goroutine at a time; the round runners
// enforce that.
type Client struct {
	data *dataset.ClientData
	net  *nn.Network
	opt  *opt.Adam
	// Attack is the client's malicious behavior (zero value = honest).
	// Applied inside TrainLocal, so the simulated and live fabrics poison
	// identically.
	Attack robust.Attack

	// The client's labeled streams, stored by value so rebinding a pooled
	// Client allocates nothing. Neither is ever advanced: each round draws
	// from a child labeled by the round.
	scheduleRNG rng.RNG // fixed pseudo-random mini-batch schedule (§6)
	dpRNG       rng.RNG // differential-privacy noise stream (dpStreamBase)
	batchX      *tensor.Mat
	batchY      []int
	batchView   tensor.Mat // retargeted remainder-batch view over batchX
	perm        []int      // per-epoch shuffle order, sized for the largest shard the Client trains

	// shard is the scratch derived shards are synthesized into, for the
	// member the replica trains (Data then points here) or the panel member
	// it evaluates; each use overwrites the last. Retained shards never
	// touch it.
	shard dataset.ClientData
}

// Per-client stream bases off the run seed. The schedule base predates the
// DP stage; DP noise gets its own disjoint base so enabling the clip stage
// cannot perturb the batch schedule (and a DP-off run draws nothing).
const (
	scheduleStreamBase = 500_000
	dpStreamBase       = 600_000
)

// NewLocalClient builds a Client without a simulated runtime, for callers
// that live on real clocks (the TCP transport) or drive training directly
// (tests, examples).
func NewLocalClient(id int, data *dataset.ClientData, net *nn.Network, o *opt.Adam, seed uint64) *Client {
	return &Client{
		data:        data,
		net:         net,
		opt:         o,
		perm:        make([]int, data.NumTrain()),
		scheduleRNG: rng.New(seed).SplitLabeledValue(uint64(scheduleStreamBase + id)),
		dpRNG:       rng.New(seed).SplitLabeledValue(uint64(dpStreamBase + id)),
	}
}

// LocalConfig drives one round of local training.
type LocalConfig struct {
	Epochs    int
	BatchSize int
	// Lambda is the proximal coefficient of Eq. 3; 0 disables the
	// constraint (plain FedAvg-style local SGD).
	Lambda float64
	// Round selects the client's fixed pseudo-random mini-batch schedule:
	// the same (client, round) pair always yields the same batches, the
	// fairness device of §6 applied across all compared methods.
	Round uint64
	// DPClip > 0 enables the per-client differential-privacy stage: the
	// local delta is clipped to this L2 norm and perturbed with Gaussian
	// noise of per-coordinate stddev DPNoise·DPClip, drawn from the
	// client's dedicated DP stream labeled by Round. 0 disables the stage
	// (and draws nothing).
	DPClip  float64
	DPNoise float64
	// LRScale multiplies the optimizer's learning rate for this round —
	// the staleness-adaptive LR stage (RunConfig.AdaptiveLR). 0 means the
	// stage is off, and a scale of exactly 1 is skipped too, so stage-off
	// (and zero-staleness) rounds are bit-identical to builds without the
	// field.
	LRScale float64
}

// Steps returns the number of mini-batch steps a round performs on n
// samples — also the unit of simulated compute time.
func (lc LocalConfig) Steps(n int) int {
	if n == 0 {
		return 0
	}
	perEpoch := (n + lc.BatchSize - 1) / lc.BatchSize
	return perEpoch * lc.Epochs
}

// TrainLocal runs the paper's local update: starting from globalW, perform
// Epochs passes of mini-batch training minimizing
// h_k(w) = F_k(w) + λ/2·‖w−globalW‖² (Eq. 3), and return the resulting
// weights plus the number of batch steps executed.
//
// The returned slice is the replica's own weight vector, which the attack
// and the DP stage finish in place: callers must encode, copy or fold it
// before the client trains again. The round runners satisfy this by
// construction — a simulated member's result is copied into its pool
// buffer before the replica goes back, and a live client's upload is
// transmitted before its next round starts.
func (c *Client) TrainLocal(globalW []float64, lc LocalConfig) ([]float64, int) {
	c.net.SetWeights(globalW)
	n := c.data.NumTrain()
	if n == 0 {
		return c.net.Weights(), 0
	}
	c.opt.Reset()
	if lc.LRScale > 0 && lc.LRScale != 1 {
		// The moments are rate-independent, so the scale composes with them;
		// the rate is restored when the round ends.
		defer func(lr float64) { c.opt.LR = lr }(c.opt.LR)
		c.opt.LR *= lc.LRScale
	}

	// The batch scratch is sized by capacity — BatchSize rows whatever this
	// client's n — and a short batch views its first m rows, so a pooled
	// replica rebinding across clients with n < BatchSize never reallocates.
	if c.batchX == nil || c.batchX.R != lc.BatchSize || c.batchX.C != c.data.TrainX.C {
		c.batchX = tensor.NewMat(lc.BatchSize, c.data.TrainX.C)
		c.batchY = make([]int, lc.BatchSize)
	}
	if cap(c.perm) < n { // only past the bound its constructor sized it for
		c.perm = make([]int, n)
	}
	c.perm = c.perm[:n]

	sched := c.scheduleRNG.SplitLabeledValue(lc.Round)
	// Dropout masks are the one thing SetWeights and opt.Reset leave behind
	// in a replica. Restart them from labeled children of this (client,
	// round)'s schedule stream — a split, so the permutation draws below do
	// not move and a dropout-free network draws nothing — and the round is a
	// function of (client, round, globalW), whichever replica runs it.
	c.net.Reseed(&sched)
	steps := 0
	for e := 0; e < lc.Epochs; e++ {
		sched.PermInto(c.perm)
		order := c.perm
		for lo := 0; lo < n; lo += lc.BatchSize {
			hi := lo + lc.BatchSize
			if hi > n {
				hi = n
			}
			m := hi - lo
			bx := c.batchX
			by := c.batchY
			if m != lc.BatchSize {
				bx = c.batchView.View(m, c.data.TrainX.C, c.batchX.Data[:m*c.data.TrainX.C])
				by = c.batchY[:m]
			}
			for i := 0; i < m; i++ {
				src := order[lo+i]
				copy(bx.Row(i), c.data.TrainX.Row(src))
				by[i] = c.Attack.FlipLabel(c.data.TrainY[src])
			}
			c.net.ZeroGrad()
			c.net.Backprop(bx, by)
			opt.AddProximal(c.net.Grads(), c.net.Weights(), globalW, lc.Lambda)
			c.opt.Step(c.net.Weights(), c.net.Grads())
			steps++
		}
	}
	w := c.net.Weights()
	c.Attack.ApplyDelta(w, globalW)
	if lc.DPClip > 0 {
		g := c.dpRNG.SplitLabeledValue(lc.Round)
		robust.Sanitize(w, globalW, lc.DPClip, lc.DPNoise, &g)
	}
	return w, steps
}
