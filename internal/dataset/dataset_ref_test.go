package dataset

import "repro/internal/rng"

// generateEager is the pre-lazy construction, byte-for-byte: every draw in
// its original order. It exists as the specification the lazy Source is
// tested against (TestSourceMatchesEagerGenerate).
func generateEager(cfg Config) (*Federated, error) {
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
		genClientInto(fed.Clients[i], cr, gen, classes, sizes[i], cfg.TrainFrac, fed.InDim)
	}
	return fed, nil
}
