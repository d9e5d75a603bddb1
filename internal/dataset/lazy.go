package dataset

import "repro/internal/rng"

// Source is the lazy form of a federated dataset: client shards are
// synthesized on demand from (seed, id) instead of being generated up
// front. The only draws that are sequential on a shared stream — the
// image prototypes (root label 1) and the per-client sample counts (root
// label 2) — are taken at construction; each shard's own samples come
// from the client's labeled stream (100+id), so Client(i) is a pure
// function of (cfg, i) and generation order cannot matter. A shard built
// lazily is byte-for-byte the shard Generate builds (Generate now
// delegates here; TestSourceMatchesEagerGenerate pins the equivalence
// against the original eager construction).
//
// The prototype table is O(Classes · InDim) and the size table O(N) ints;
// nothing else is retained, so a million-client dataset costs megabytes
// until shards are requested — and a caller that synthesizes into its own
// scratch shard (ClientInto) generates no garbage per request either.
type Source struct {
	cfg       Config // resolved: TrainFrac and ClassesPerClient normalized
	perClient int
	inDim     int
	gen       sampleGen
	root      *rng.RNG // never advanced; anchors the per-client splits
	sizes     []int
}

// NewSource validates cfg and builds the lazy dataset source.
func NewSource(cfg Config) (*Source, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.TrainFrac <= 0 || cfg.TrainFrac >= 1 {
		cfg.TrainFrac = 0.8
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
	s.sizes = clientSizes(s.root.SplitLabeled(2), cfg)
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
// generating the shard — the same clamp-to-[1, n-1] split arithmetic
// genClientInto applies, over the precomputed size table.
func (s *Source) NumTrain(i int) int {
	n := s.sizes[i]
	nTrain := int(float64(n) * s.cfg.TrainFrac)
	if nTrain >= n {
		nTrain = n - 1
	}
	if nTrain < 1 {
		nTrain = 1
	}
	return nTrain
}

// Client synthesizes client i's shard into fresh storage the caller owns
// outright — the form for shards that are retained.
func (s *Source) Client(i int) *ClientData { return s.ClientInto(new(ClientData), i) }

// ClientInto synthesizes client i's shard into dst and returns dst, reusing
// dst's matrices and label slices when their capacity suffices — once dst
// has held the largest shard it will see, a call allocates nothing. The
// shard is the one Client(i) builds, bit for bit, whatever dst held before;
// it is valid until dst's owner passes dst here again. Calls on distinct
// dsts may run concurrently.
func (s *Source) ClientInto(dst *ClientData, i int) *ClientData {
	dst.classes = appendClasses(dst.classes[:0], i, s.perClient, s.cfg.Classes)
	dst.stream = s.root.SplitLabeledValue(uint64(100 + i))
	genClientInto(dst, &dst.stream, s.gen, dst.classes, s.sizes[i], s.cfg.TrainFrac, s.inDim)
	return dst
}

// Federated materializes every shard — the eager construction, now
// expressed as "generate every client". Generate delegates here.
func (s *Source) Federated() *Federated {
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
