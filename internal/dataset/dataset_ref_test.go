package dataset

import (
	"math"

	"repro/internal/rng"
)

// generateEager is the pre-lazy construction, byte-for-byte: every draw in
// its original order. It exists as the specification the lazy Source is
// tested against (TestSourceMatchesEagerGenerate).
func generateEager(cfg Config) (*Federated, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	perClient := cfg.ClassesPerClient
	if perClient <= 0 || perClient > cfg.Classes {
		perClient = cfg.Classes // IID
	}
	root := rng.New(cfg.Seed)

	fed := &Federated{
		Name:    cfg.Name,
		Classes: cfg.Classes,
		ImgC:    cfg.ImgC, ImgH: cfg.ImgH, ImgW: cfg.ImgW,
		Vocab: cfg.Vocab, SeqLen: cfg.SeqLen,
	}
	var gen sampleGen
	if cfg.ImgC > 0 {
		fed.InDim = cfg.ImgC * cfg.ImgH * cfg.ImgW
		gen = newImageGen(root.SplitLabeled(1), cfg)
	} else {
		fed.InDim = cfg.SeqLen
		gen = newTokenGen(cfg)
	}

	sizes := clientSizes(root.SplitLabeled(2), cfg)
	fed.Clients = make([]*ClientData, cfg.NumClients)
	for i := 0; i < cfg.NumClients; i++ {
		classes := appendClasses(nil, i, perClient, cfg.Classes)
		cr := root.SplitLabeled(uint64(100 + i))
		fed.Clients[i] = new(ClientData)
		genClientInto(fed.Clients[i], cr, gen, classes, sizes[i], fed.InDim, splitAll)
	}
	return fed, nil
}

// clientSizes is the pre-lazy sample-count draw, byte-for-byte: one pass
// over the label-2 stream in id order. It is the sequential oracle
// Source.NumTrain's indexed draw is tested against: uniform-ish by
// default, a heavy-tailed power law when PowerLaw is set.
func clientSizes(r *rng.RNG, cfg Config) []int {
	sizes := make([]int, cfg.NumClients)
	if !cfg.PowerLaw {
		for i := range sizes {
			// ±20% jitter around the mean.
			jitter := 0.8 + 0.4*r.Float64()
			sizes[i] = int(float64(cfg.SamplesPerClient) * jitter)
			if sizes[i] < 5 {
				sizes[i] = 5
			}
		}
		return sizes
	}
	raw := make([]float64, cfg.NumClients)
	total := 0.0
	for i := range raw {
		u := r.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		raw[i] = 1 / math.Pow(u, 0.6)
		total += raw[i]
	}
	want := float64(cfg.SamplesPerClient * cfg.NumClients)
	for i := range sizes {
		sizes[i] = int(raw[i] / total * want)
		if sizes[i] < 5 {
			sizes[i] = 5
		}
	}
	return sizes
}
