package dataset

import (
	"slices"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Source is the lazy form of a federated dataset: client shards are
// synthesized on demand from (seed, id) instead of being generated up
// front. Each shard's samples come from the client's labeled stream
// (100+id), and its sample count is draw id of the shared root label-2
// stream, which SplitMix64 reaches in O(1) (rng.Float64At); so Client(i)
// and NumTrain(i) are pure functions of (cfg, i) and generation order
// cannot matter. The one draw that is sequential on a shared stream — the
// image prototypes (root label 1) — is taken at construction, and a
// power-law dataset sums its N raw size weights once, in id order, to keep
// their total. A shard built lazily is byte-for-byte the shard Generate
// builds (Generate delegates here; TestSourceMatchesEagerGenerate pins the
// equivalence against the original eager construction).
//
// The prototype table is O(Classes · InDim); nothing per client is
// retained, so a million-client dataset costs kilobytes until shards are
// requested — and a caller that synthesizes into its own scratch shard
// (clientInto) generates no garbage per request either.
type Source struct {
	cfg       Config
	perClient int
	inDim     int
	gen       sampleGen
	root      *rng.RNG // never advanced; anchors the per-client splits
	sizes     rng.RNG  // root label 2, never advanced: draw i sizes client i
	rawTotal  float64  // PowerLaw: the sum of every client's raw size weight
}

// NewSource validates cfg and builds the lazy dataset source.
func NewSource(cfg Config) (*Source, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	perClient := cfg.ClassesPerClient
	if perClient <= 0 || perClient > cfg.Classes {
		perClient = cfg.Classes // IID
	}
	s := &Source{cfg: cfg, perClient: perClient, root: rng.New(cfg.Seed)}
	if cfg.ImgC > 0 {
		s.inDim = cfg.ImgC * cfg.ImgH * cfg.ImgW
		s.gen = newImageGen(s.root.SplitLabeled(1), cfg)
	} else {
		s.inDim = cfg.SeqLen
		s.gen = newTokenGen(cfg)
	}
	s.sizes = s.root.SplitLabeledValue(2)
	if cfg.PowerLaw {
		for i := range cfg.NumClients {
			s.rawTotal += powerLawRaw(s.sizes.Float64At(i))
		}
	}
	return s, nil
}

// NumClients returns the population size.
func (s *Source) NumClients() int { return s.cfg.NumClients }

// Name returns the dataset name.
func (s *Source) Name() string { return s.cfg.Name }

// InDim returns the per-sample feature width.
func (s *Source) InDim() int { return s.inDim }

// Classes returns the label count.
func (s *Source) Classes() int { return s.cfg.Classes }

// NumTrain returns client i's local training-set size n_k without
// generating the shard: genClientInto's split of the client's derived
// sample count.
func (s *Source) NumTrain(i int) int { return numTrain(s.size(i)) }

// MaxNumTrain bounds NumTrain over every client from the config alone. A
// size is monotone in its draw u ∈ [0, 1): a jittered size rises with it,
// staying below 1.2·SamplesPerClient, and a power-law size falls with it,
// peaking at the 1e-9 clamp. So the larger of the sizes at the draw's two
// ends bounds them all, and numTrain is monotone too.
func (s *Source) MaxNumTrain() int { return numTrain(s.maxSize()) }

// maxSize is the largest sample count any client draws (MaxNumTrain).
func (s *Source) maxSize() int { return max(s.sizeAt(0), s.sizeAt(1)) }

// Reserve grows dst to the largest shard TrainInto and TestInto write —
// each split's rows and labels, and the class subset — so synthesizing any
// client's split into dst allocates nothing from then on, whichever
// clients it serves and in whatever order. Both splits are largest at the
// largest sample count: the test split n − numTrain(n) never falls as n
// rises, since numTrain rises by at most one a sample.
func (s *Source) Reserve(dst *ClientData) {
	n := s.maxSize()
	nTrain, nTest := numTrain(n), n-numTrain(n)
	dst.TrainX = tensor.EnsureMat(dst.TrainX, nTrain, s.inDim)
	dst.TestX = tensor.EnsureMat(dst.TestX, nTest, s.inDim)
	dst.TrainY = slices.Grow(dst.TrainY[:0], nTrain)
	dst.TestY = slices.Grow(dst.TestY[:0], nTest)
	dst.classes = slices.Grow(dst.classes[:0], s.perClient)
}

// size returns client i's sample count (train + test): sizeAt its draw.
func (s *Source) size(i int) int { return s.sizeAt(s.sizes.Float64At(i)) }

// sizeAt returns the sample count (train + test) for size draw u, at least
// 5: ±20% jitter around the mean by default, a heavy-tailed power law when
// PowerLaw is set (FEMNIST/Reddit heterogeneity), scaled so the counts sum
// to about SamplesPerClient·N.
func (s *Source) sizeAt(u float64) int {
	var n int
	if !s.cfg.PowerLaw {
		jitter := 0.8 + 0.4*u
		n = int(float64(s.cfg.SamplesPerClient) * jitter)
	} else {
		want := float64(s.cfg.SamplesPerClient * s.cfg.NumClients)
		n = int(powerLawRaw(u) / s.rawTotal * want)
	}
	return max(n, 5)
}

// powerLawRaw is a power-law client's raw size weight for uniform draw u.
func powerLawRaw(u float64) float64 {
	if u < 1e-9 {
		u = 1e-9
	}
	return 1 / tensor.Pow(u, 0.6)
}

// Client synthesizes client i's shard into fresh storage the caller owns
// outright — the form for shards that are retained.
func (s *Source) Client(i int) *ClientData { return s.clientInto(new(ClientData), i) }

// clientInto synthesizes client i's shard into dst and returns dst, reusing
// dst's matrices and label slices when their capacity suffices — once dst
// has held the largest shard it will see, a call allocates nothing. The
// shard is the one Client(i) builds, bit for bit, whatever dst held before;
// it is valid until dst's owner passes dst here again. Calls on distinct
// dsts may run concurrently.
func (s *Source) clientInto(dst *ClientData, i int) *ClientData { return s.into(dst, i, splitAll) }

// TrainInto is clientInto for a caller that reads only the training split:
// dst's training rows are clientInto's, bit for bit, and its test split is
// left empty. Synthesis stops after the last training row.
func (s *Source) TrainInto(dst *ClientData, i int) *ClientData { return s.into(dst, i, splitTrain) }

// TestInto is clientInto for a caller that reads only the test split: dst's
// test rows are clientInto's, bit for bit, and its training split is left
// empty. An image source skips the training rows' sample draws instead of
// synthesizing them.
func (s *Source) TestInto(dst *ClientData, i int) *ClientData { return s.into(dst, i, splitTest) }

// into synthesizes the named split of client i's shard into dst.
func (s *Source) into(dst *ClientData, i int, part split) *ClientData {
	dst.classes = appendClasses(dst.classes[:0], i, s.perClient, s.cfg.Classes)
	dst.stream = s.root.SplitLabeledValue(uint64(100 + i))
	genClientInto(dst, &dst.stream, s.gen, dst.classes, s.size(i), s.inDim, part)
	return dst
}

// federated materializes every shard — the eager construction, now
// expressed as "generate every client". Generate delegates here.
func (s *Source) federated() *Federated {
	fed := &Federated{
		Name:    s.cfg.Name,
		Classes: s.cfg.Classes,
		InDim:   s.inDim,
		ImgC:    s.cfg.ImgC, ImgH: s.cfg.ImgH, ImgW: s.cfg.ImgW,
		Vocab: s.cfg.Vocab, SeqLen: s.cfg.SeqLen,
	}
	fed.Clients = make([]*ClientData, s.cfg.NumClients)
	for i := range fed.Clients {
		fed.Clients[i] = s.Client(i)
	}
	return fed
}
