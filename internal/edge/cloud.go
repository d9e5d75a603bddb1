// Package edge is the hierarchical topology layer: clients fold into edge
// aggregators, edge aggregators fold into a cloud model — the two-tier
// architecture of asynchronous semi-decentralized federated edge learning,
// layered on top of FedAT's tiered asynchrony inside each edge. The package
// provides two pieces:
//
//   - Cloud: the edge→cloud fold state machine (sync barrier or buffered
//     async with staleness-weighted folding), shared verbatim by the
//     simulated hierarchy and the live TCP root server,
//   - Run: the simulated hierarchy runner — K unmodified engines, one per
//     edge, interleaved on one deterministically merged virtual timeline.
//
// Determinism contract: for simulated edges, same seed → bit-identical
// runs, and a single-edge topology is bit-identical to the flat run — the
// cloud with one edge is a pure pass-through (an exact copy, no rebase, no
// wire), so the edge's engine never observes the hierarchy at all.
package edge

import (
	"fmt"
	"sync"

	"repro/internal/codec"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Fold policies.
const (
	// FoldSync folds the cloud model only when every live edge has pushed
	// since the last fold — a barrier on the FOLD, not on training: edges
	// keep training continuously (FedAT's asynchrony is preserved inside
	// each edge), the cloud merely waits for full coverage before merging.
	// A departed edge leaves the barrier, so survivors keep folding.
	FoldSync = "sync"
	// FoldAsync folds after every Buffer-th push, blending each push into
	// its edge's slot with the staleness weight α = (staleness+1)^(−exp),
	// staleness measured in cloud epochs since that edge last adopted the
	// merged model — FedAsync's mixing applied across edges.
	FoldAsync = "async"
)

// CloudConfig configures the edge→cloud fold state machine.
type CloudConfig struct {
	// Edges is K, the number of edge aggregators.
	Edges int
	// Fold is the policy: FoldSync or FoldAsync.
	Fold string
	// Buffer is FoldAsync's push budget per fold (buffered-K); default 1 —
	// fold on every push. Ignored under FoldSync.
	Buffer int
	// StaleExp is FoldAsync's staleness exponent a in fl's polynomial
	// weight (s+1)^(−a), with the same unset/off convention as
	// fl.StalenessConfig.Alpha: 0 inherits the 0.5 default, fl.StaleExpOff
	// (any negative value) means exactly 0 — stale and fresh pushes weigh
	// the same.
	StaleExp float64
	// W0 is the initial global model, the implicit first cloud model and
	// the uplink codec's initial shared reference.
	W0 []float64
	// Shapes describes the model blocks for the uplink wire format.
	Shapes []codec.ShapeInfo
	// TopKFrac, when > 0, compresses each edge push with the top-k delta
	// codec: the edge transmits the sparsified difference against the
	// shared per-edge reference (last reconstructed push), never the
	// absolute model — top-k zero-fills dropped coordinates, so absolute
	// models would be destroyed. 0 transmits raw float64 (bit-lossless).
	// Push encodes with it; the live root's PushWire never reads it.
	TopKFrac float64
	// Eval, when set, evaluates the merged model after each EvalEvery-th
	// fold (cloud-level accuracy points over the union population).
	Eval func(w []float64) (fl.Result, bool)
	// EvalEvery is the fold cadence of Eval; default 1.
	EvalEvery int
	// Dataset labels the cloud-level run record.
	Dataset string
	// Method labels the cloud-level run record.
	Method string
}

func (c CloudConfig) withDefaults() CloudConfig {
	if c.Fold == "" {
		c.Fold = FoldSync
	}
	if c.Buffer <= 0 {
		c.Buffer = 1
	}
	if c.StaleExp == 0 {
		// Negative (fl.StaleExpOff) passes through; Weight clamps it to 0
		// at the point of use, so an explicit zero is not re-defaulted.
		c.StaleExp = 0.5
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	return c
}

// Cloud is the edge→cloud aggregation state: one model slot per edge (its
// latest reconstructed push), push counters, and the merged global model.
// The merge is an eq5-style update-count-weighted average across edge
// slots — weight of edge e proportional to counts[e]+1 (add-one smoothing,
// as in core.Aggregator; no mirroring, since edge ids carry no latency
// order) — computed over edges that have pushed at least once and not
// departed.
//
// All methods are safe for concurrent use: the simulated hierarchy calls
// them from the single driver goroutine, the live root from per-edge
// connection readers.
type Cloud struct {
	mu  sync.Mutex
	cfg CloudConfig

	slots   [][]float64 // latest reconstructed push per edge; nil before the first
	refs    [][]float64 // shared per-edge uplink reference for the delta codec
	counts  []int       // pushes per edge
	adopted []int       // cloud epoch each edge last adopted (0 = w0)
	pending []bool      // pushed since the last fold
	retired []bool      // edge departed (engine finished or connection lost)

	pushesSinceFold int
	epoch           int // cloud folds so far
	global          []float64

	// Uplink scratch, reused under mu: the wire message of a simulated
	// push, the top-k delta, and the reconstructed arrival (which
	// insertLocked copies into the edge's slot before the next push).
	wire    []byte
	delta   []float64
	arrival []float64

	// Cloud-level accounting: the traffic the cloud link carried, the
	// latest fold's time, and the record its own events fold into.
	up, down int64
	lastFold float64
	rec      fl.Recorder
}

// NewCloud builds the fold state machine.
func NewCloud(cfg CloudConfig) (*Cloud, error) {
	cfg = cfg.withDefaults()
	if cfg.Edges <= 0 {
		return nil, fmt.Errorf("edge: cloud needs at least one edge, got %d", cfg.Edges)
	}
	if cfg.Fold != FoldSync && cfg.Fold != FoldAsync {
		return nil, fmt.Errorf("edge: unknown fold policy %q (have %q, %q)", cfg.Fold, FoldSync, FoldAsync)
	}
	if len(cfg.W0) == 0 {
		return nil, fmt.Errorf("edge: cloud needs the initial model")
	}
	if !(cfg.TopKFrac >= 0 && cfg.TopKFrac <= 1) { // NaN too: it would pick the raw codec
		return nil, fmt.Errorf("edge: top-k fraction %g out of [0,1]", cfg.TopKFrac)
	}
	c := &Cloud{
		cfg:     cfg,
		slots:   make([][]float64, cfg.Edges),
		refs:    make([][]float64, cfg.Edges),
		counts:  make([]int, cfg.Edges),
		adopted: make([]int, cfg.Edges),
		pending: make([]bool, cfg.Edges),
		retired: make([]bool, cfg.Edges),
		global:  tensor.Copy(cfg.W0),
	}
	c.rec.OnEvent(fl.StartEvent{Method: cfg.Method, Dataset: cfg.Dataset})
	return c, nil
}

// uplinkCodec returns the wire codec an edge push travels as.
func (c *Cloud) uplinkCodec() codec.Codec {
	if c.cfg.TopKFrac > 0 {
		return &codec.TopK{Frac: c.cfg.TopKFrac}
	}
	return codec.Raw{}
}

// AppendUplink appends edge e's marshalled model to dst exactly as the
// cloud will decode it: the top-k-sparsified delta against the shared
// reference when compression is on, the raw model otherwise. The reference
// is NOT advanced — DecodeUplinkInto (or Push, which uses it) advances both
// ends. delta is the caller's scratch for the top-k difference (grown when
// short, untouched under a plain codec); it is returned for reuse. The live
// edge uplink builds its frames with this; the simulated hierarchy pushes
// in-process through Push and never materializes bytes for K = 1.
func AppendUplink(dst []byte, cdc codec.Codec, shapes []codec.ShapeInfo, ref, w, delta []float64) ([]byte, []float64, error) {
	if _, ok := cdc.(*codec.TopK); ok {
		delta = tensor.EnsureVec(delta, len(w))
		for i := range w {
			delta[i] = w[i] - ref[i]
		}
		w = delta
	}
	dst, err := codec.AppendModel(dst, cdc, shapes, w)
	return dst, delta, err
}

// EncodeUplink is AppendUplink into fresh slices.
func EncodeUplink(cdc codec.Codec, shapes []codec.ShapeInfo, ref, w []float64) ([]byte, error) {
	msg, _, err := AppendUplink(nil, cdc, shapes, ref, w, nil)
	return msg, err
}

// DecodeUplinkInto reconstructs a pushed model from its wire message into
// dst and advances the shared reference in place: under the delta codec the
// payload is ref+delta and ref becomes the reconstruction (both ends
// compute the identical new reference); under a plain codec the payload is
// the model itself. dst must not alias ref; a message of any other size
// than the reference is corrupt.
func DecodeUplinkInto(data []byte, ref, dst []float64) error {
	if len(dst) != len(ref) {
		return fmt.Errorf("edge: uplink buffer holds %d weights, reference %d", len(dst), len(ref))
	}
	if err := codec.UnmarshalModelInto(data, dst); err != nil {
		return err
	}
	if codec.IsTopKMessage(data) {
		tensor.AddTo(dst, ref)
	}
	copy(ref, dst)
	return nil
}

// DecodeUplink is DecodeUplinkInto a fresh slice.
func DecodeUplink(data []byte, ref []float64) ([]float64, error) {
	w := make([]float64, len(ref))
	return w, DecodeUplinkInto(data, ref, w)
}

// Push folds edge e's freshly trained model into the cloud state at time
// now. When the push triggers a cloud fold (barrier satisfied, or the
// async buffer filled), the returned event describes it and folded is
// true; the event is emitted into the pushing edge's stream by the caller.
//
// With a single edge the cloud is a pass-through: the merged model is an
// exact copy of the push, no bytes are accounted (there is no cloud link)
// and no compression applies — this is what makes edge:1 ≡ flat exact.
func (c *Cloud) Push(e int, w []float64, now float64) (fl.EdgeFoldEvent, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e < 0 || e >= c.cfg.Edges {
		panic(fmt.Sprintf("edge: push from edge %d, have %d edges", e, c.cfg.Edges))
	}
	if c.cfg.Edges == 1 {
		return c.arriveLocked(e, w, now)
	}
	// Run the actual wire path, so the accounted bytes are the frame
	// payload and the lossy codec's effect is simulation-faithful.
	var err error
	c.wire, c.delta, err = AppendUplink(c.wire[:0], c.uplinkCodec(), c.cfg.Shapes, c.refLocked(e), w, c.delta)
	if err != nil {
		panic(fmt.Sprintf("edge: uplink encode: %v", err))
	}
	ev, folded, err := c.decodeLocked(e, c.wire, now)
	if err != nil {
		panic(fmt.Sprintf("edge: uplink decode: %v", err))
	}
	return ev, folded
}

// PushWire folds an already-encoded uplink frame — the live root's path:
// the frame arrived over TCP, so the bytes are accounted as received and
// the decode advances the shared per-edge reference exactly as the sending
// edge advanced its own copy.
func (c *Cloud) PushWire(e int, data []byte, now float64) (fl.EdgeFoldEvent, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e < 0 || e >= c.cfg.Edges {
		return fl.EdgeFoldEvent{}, false, fmt.Errorf("edge: push from edge %d, have %d edges", e, c.cfg.Edges)
	}
	return c.decodeLocked(e, data, now)
}

// refLocked returns edge e's shared uplink reference, starting it at W0 on
// the edge's first push.
func (c *Cloud) refLocked(e int) []float64 {
	if c.refs[e] == nil {
		c.refs[e] = tensor.Copy(c.cfg.W0)
	}
	return c.refs[e]
}

// decodeLocked reconstructs edge e's push from its uplink message,
// accounts the message's bytes and registers the arrival.
func (c *Cloud) decodeLocked(e int, data []byte, now float64) (fl.EdgeFoldEvent, bool, error) {
	ref := c.refLocked(e)
	c.arrival = tensor.EnsureVec(c.arrival, len(ref))
	if err := DecodeUplinkInto(data, ref, c.arrival); err != nil {
		return fl.EdgeFoldEvent{}, false, err
	}
	c.up += int64(len(data))
	ev, folded := c.arriveLocked(e, c.arrival, now)
	return ev, folded, nil
}

// arriveLocked registers a reconstructed push and folds if the policy says.
func (c *Cloud) arriveLocked(e int, arrival []float64, now float64) (fl.EdgeFoldEvent, bool) {
	staleness := float64(c.epoch - c.adopted[e])
	if c.cfg.Edges == 1 {
		// A pass-through edge never adopts (it IS the cloud), so the
		// adoption epoch can't advance; its pushes are by definition fresh.
		staleness = 0
	}
	c.insertLocked(e, arrival, staleness)
	c.counts[e]++
	c.pending[e] = true
	c.pushesSinceFold++
	if !c.foldReadyLocked() {
		return fl.EdgeFoldEvent{}, false
	}
	return c.foldLocked(e, staleness, now), true
}

// insertLocked blends the arrival into edge e's slot. FoldSync replaces the
// slot (the barrier guarantees every fold sees each edge's latest); under
// FoldAsync a stale push is discounted by α = (staleness+1)^(−exp) — fl's
// polynomial staleness weight, the one law the engine's async rules use —
// the cross-edge version of FedAsync's mixing. α = 1 (fresh push) is an exact
// copy — Lerp with t=1 is not bit-exact, and single-edge pass-through
// equality depends on the copy.
func (c *Cloud) insertLocked(e int, arrival []float64, staleness float64) {
	if c.slots[e] == nil {
		c.slots[e] = tensor.Copy(arrival)
		return
	}
	alpha := 1.0
	if c.cfg.Fold == FoldAsync {
		alpha = fl.StalenessConfig{Alpha: c.cfg.StaleExp}.Weight(staleness)
	}
	if alpha >= 1 {
		copy(c.slots[e], arrival)
		return
	}
	tensor.Lerp(c.slots[e], arrival, alpha)
}

// foldReadyLocked evaluates the fold policy.
func (c *Cloud) foldReadyLocked() bool {
	if c.pushesSinceFold == 0 {
		return false
	}
	if c.cfg.Fold == FoldAsync {
		return c.pushesSinceFold >= c.cfg.Buffer
	}
	// Sync barrier: every live edge has contributed since the last fold.
	for e := range c.pending {
		if !c.retired[e] && !c.pending[e] {
			return false
		}
	}
	return true
}

// foldLocked merges the live slots into the global model and feeds the
// fold, and the merged model's evaluation, to the cloud record.
// trigger/staleness describe the push that completed the policy (for the
// event); a retirement-triggered fold passes the lowest still-pending edge.
func (c *Cloud) foldLocked(trigger int, staleness float64, now float64) fl.EdgeFoldEvent {
	var members []int
	for e := range c.slots {
		if c.slots[e] != nil && !c.retired[e] {
			members = append(members, e)
		}
	}
	switch len(members) {
	case 0:
		// Every contributor departed; keep the last merged model.
	case 1:
		// Exact copy: single-contributor folds (and thus the whole K=1
		// topology) must not perturb bits through a (n·w)/n round trip.
		copy(c.global, c.slots[members[0]])
	default:
		total := 0.0
		for _, e := range members {
			total += float64(c.counts[e] + 1)
		}
		tensor.Zero(c.global)
		for _, e := range members {
			tensor.Axpy(float64(c.counts[e]+1)/total, c.slots[e], c.global)
		}
	}
	c.epoch++
	c.pushesSinceFold = 0
	for e := range c.pending {
		c.pending[e] = false
	}
	ev := fl.EdgeFoldEvent{
		Edge:      trigger,
		Round:     c.epoch,
		Time:      now,
		Staleness: staleness,
		Members:   len(members),
	}
	c.lastFold = now
	c.rec.OnEvent(ev)
	if c.cfg.Eval != nil && c.epoch%c.cfg.EvalEvery == 0 {
		if res, ok := c.cfg.Eval(c.global); ok {
			c.rec.OnEvent(fl.EvalEvent{Round: c.epoch, Time: now, Result: res, UpBytes: c.up, DownBytes: c.down})
		}
	}
	return ev
}

// Adopt hands edge e the merged model when the cloud has folded since e
// last adopted; ok is false when e is already current. The returned slice
// is a fresh copy (the edge's update rule copies from it on rebase, but
// the live root also marshals it). Single-edge topologies never adopt —
// the pass-through edge IS the cloud.
func (c *Cloud) Adopt(e int) (w []float64, epoch int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.Edges == 1 || c.adopted[e] >= c.epoch {
		return nil, 0, false
	}
	c.adopted[e] = c.epoch
	c.down += int64(rawWireBytes(c.cfg.Shapes, len(c.global)))
	return tensor.Copy(c.global), c.epoch, true
}

// Retire marks edge e departed (engine finished, or its connection died):
// it leaves the sync barrier and future folds. If its departure completes
// the barrier for the survivors, the cloud folds immediately — this is the
// "keeps folding surviving edges" degradation; the fold has no event
// stream to land on, so it is recorded only in the cloud run.
func (c *Cloud) Retire(e int, now float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e < 0 || e >= c.cfg.Edges || c.retired[e] {
		return
	}
	c.retired[e] = true
	c.pending[e] = false
	if c.cfg.Fold == FoldSync && c.foldReadyLocked() {
		trigger, stale := 0, 0.0
		for p := range c.pending {
			if c.pending[p] {
				trigger = p
				stale = float64(c.epoch - c.adopted[p])
				break
			}
		}
		c.foldLocked(trigger, stale, now)
	}
}

// Live reports how many edges have not retired.
func (c *Cloud) Live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.retired {
		if !r {
			n++
		}
	}
	return n
}

// Fold returns the fold policy the cloud resolved: FoldSync where the
// config left it empty.
func (c *Cloud) Fold() string { return c.cfg.Fold }

// Epoch returns the cloud fold count.
func (c *Cloud) Epoch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Global returns a copy of the current merged model.
func (c *Cloud) Global() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return tensor.Copy(c.global)
}

// Record closes the cloud's event stream and returns the cloud-level run
// record (fold counts, staleness, uplink/downlink bytes, merged-model
// evaluations). The caller owns it after the hierarchy finishes.
func (c *Cloud) Record() *metrics.Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rec.OnEvent(fl.EndEvent{Round: c.epoch, Time: c.lastFold, UpBytes: c.up, DownBytes: c.down})
	return (*metrics.Run)(&c.rec)
}

// rawWireBytes is the marshalled size of a raw-float64 model message — the
// adoption downlink's accounting (adoptions are never compressed).
func rawWireBytes(shapes []codec.ShapeInfo, n int) int {
	return codec.ModelHeaderBytes(shapes) + 8*n
}
