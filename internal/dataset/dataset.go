// Package dataset generates the federated datasets the FedAT evaluation
// runs on. The paper uses CIFAR-10, Fashion-MNIST, Sentiment140, FEMNIST
// and Reddit; those corpora are substituted here by synthetic generators
// that reproduce the properties the experiments actually vary:
//
//   - label structure (a fixed number of classes with learnable
//     class-conditional distributions),
//   - the non-IID partitioning knob (#classes held per client, the paper's
//     "#class" columns in Table 1),
//   - inherent heterogeneity for the LEAF datasets (power-law sample
//     counts, per-client class skew),
//   - per-client 80/20 train/test splits (§6 "Hyperparameters").
//
// Image-like data is produced from class-prototype Gaussians; text-like
// data from a token random walk with a fixed transition structure where the
// label is the successor of the last token (next-token prediction, as in
// the paper's Reddit LSTM task). Both are learnable by the corresponding
// paper architectures, which is what the convergence-shape comparisons
// require.
package dataset

import (
	"fmt"
	"slices"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// ClientData holds one client's local train/test split. Rows of the
// matrices are samples.
type ClientData struct {
	TrainX, TestX *tensor.Mat
	TrainY, TestY []int

	// Synthesis scratch of Source's clientInto, TrainInto and TestInto —
	// the shard's class subset and its sample stream — kept here so
	// refilling a reused shard allocates nothing.
	classes []int
	stream  rng.RNG
}

// NumTrain returns the local training-set size n_k.
func (c *ClientData) NumTrain() int { return len(c.TrainY) }

// NumTest returns the local held-out test size.
func (c *ClientData) NumTest() int { return len(c.TestY) }

// Federated is a complete federated dataset.
type Federated struct {
	Name    string
	Clients []*ClientData
	InDim   int // per-sample feature width (channels*h*w, or seqLen for tokens)
	Classes int
	// Image geometry when the data is image-like (zero otherwise).
	ImgC, ImgH, ImgW int
	// Token geometry when the data is sequence-like (zero otherwise).
	Vocab, SeqLen int
}

// NumTrain returns client i's local training-set size n_k.
func (f *Federated) NumTrain(i int) int { return f.Clients[i].NumTrain() }

// MaxNumTrain returns the largest training split any client holds.
func (f *Federated) MaxNumTrain() int {
	m := 0
	for _, c := range f.Clients {
		m = max(m, c.NumTrain())
	}
	return m
}

// Reserve does nothing: a retained shard is handed out, never written into
// a caller's scratch.
func (f *Federated) Reserve(*ClientData) {}

// TrainInto returns client i's retained shard, both splits, and ignores
// dst — the same surface a lazy Source answers by synthesizing the training
// split into dst, so the federation layer runs over either.
func (f *Federated) TrainInto(_ *ClientData, i int) *ClientData { return f.Clients[i] }

// TestInto is TrainInto for a caller that reads the test split.
func (f *Federated) TestInto(_ *ClientData, i int) *ClientData { return f.Clients[i] }

// Config drives the synthetic generators.
type Config struct {
	Name             string
	NumClients       int
	Classes          int
	SamplesPerClient int  // mean local dataset size (train+test)
	ClassesPerClient int  // non-IID level; 0 or >= Classes means IID
	PowerLaw         bool // LEAF-style heterogeneous sample counts
	Seed             uint64

	// Image mode (exclusive with token mode).
	ImgC, ImgH, ImgW int
	Signal, Noise    float64 // prototype scale and additive noise stddev

	// Token mode: labels are next tokens, so Classes must equal Vocab.
	Vocab, SeqLen int
}

func (cfg *Config) validate() error {
	if cfg.NumClients <= 0 {
		return fmt.Errorf("dataset %q: NumClients must be positive", cfg.Name)
	}
	if cfg.Classes < 2 {
		return fmt.Errorf("dataset %q: need at least 2 classes", cfg.Name)
	}
	if cfg.SamplesPerClient < 5 {
		return fmt.Errorf("dataset %q: SamplesPerClient too small", cfg.Name)
	}
	img := cfg.ImgC > 0
	tok := cfg.Vocab > 0
	if img == tok {
		return fmt.Errorf("dataset %q: exactly one of image/token mode required", cfg.Name)
	}
	if tok && cfg.Vocab != cfg.Classes {
		return fmt.Errorf("dataset %q: token mode requires Classes == Vocab", cfg.Name)
	}
	if tok && cfg.SeqLen <= 0 {
		return fmt.Errorf("dataset %q: token mode requires SeqLen > 0", cfg.Name)
	}
	return nil
}

// appendClasses appends client i's class subset to dst. Classes rotate so
// every class is covered and clients overlap the way the shard partitioning
// in McMahan et al. produces. For token data the "classes" are walk start
// tokens, so a subset confines the client to a region of the chain.
func appendClasses(dst []int, client, perClient, classes int) []int {
	start := (client * perClient) % classes
	for j := 0; j < perClient; j++ {
		dst = append(dst, (start+j)%classes)
	}
	return dst
}

// sampleGen writes one sample of a given class seed into row and returns
// the label.
type sampleGen interface {
	sample(r *rng.RNG, class int, row []float64) int
	// skip advances r past one sample of the class, as sample would; row
	// is scratch of the sample's width it may overwrite.
	skip(r *rng.RNG, class int, row []float64)
}

// Generate builds a federated dataset from cfg. It is a thin shell over
// the lazy Source — "generate every shard" — so the eager and lazy
// construction paths cannot drift apart. The original direct construction
// survives as a test oracle (dataset_ref_test.go) the equivalence test pins
// Source against.
func Generate(cfg Config) (*Federated, error) {
	src, err := NewSource(cfg)
	if err != nil {
		return nil, err
	}
	return src.federated(), nil
}

// trainFrac is the share of a client's samples that train; the rest test.
const trainFrac = 0.8

// numTrain is how many of a client's n samples train: trainFrac of them,
// keeping at least one sample on each side so the evaluation harness always
// has per-client accuracies to aggregate (Definition 3.1 needs them for the
// variance metric).
func numTrain(n int) int {
	nTrain := int(float64(n) * trainFrac)
	if nTrain >= n {
		nTrain = n - 1
	}
	if nTrain < 1 {
		nTrain = 1
	}
	return nTrain
}

// split names the part of a shard a synthesis writes: both, or one of the
// two, leaving the other empty.
type split int

const (
	splitAll split = iota
	splitTrain
	splitTest
)

// genClientInto draws n samples for a client restricted to its class subset
// and splits them train/test (numTrain) into c, reusing c's matrices and
// label slices when their capacity suffices. Every element of the written
// split is overwritten, so a dirty c yields the rows a fresh one would; the
// split that is not written is left with no rows. Rows draw in order from
// one stream, so a train-only shard stops after its last training row, and
// a test-only shard passes the training rows with the generator's skip: each
// still draws its class (Intn's draw count varies with its rejections), and
// the sample draws are skipped or, where their count varies, drawn into the
// first test row, which the test rows overwrite.
func genClientInto(c *ClientData, r *rng.RNG, gen sampleGen, classes []int, n int, inDim int, part split) {
	nTrain := numTrain(n)
	nTest := n - nTrain
	rows := n
	switch part {
	case splitTrain:
		nTest, rows = 0, nTrain
	case splitTest:
		nTrain = 0
	}

	c.TrainX = tensor.EnsureMat(c.TrainX, nTrain, inDim)
	c.TestX = tensor.EnsureMat(c.TestX, nTest, inDim)
	c.TrainY = slices.Grow(c.TrainY[:0], nTrain)[:nTrain]
	c.TestY = slices.Grow(c.TestY[:0], nTest)[:nTest]
	first := rows - nTest // the first test row's index
	for i := 0; i < rows; i++ {
		cls := classes[r.Intn(len(classes))]
		switch {
		case i < nTrain:
			c.TrainY[i] = gen.sample(r, cls, c.TrainX.Row(i))
		case i >= first:
			c.TestY[i-first] = gen.sample(r, cls, c.TestX.Row(i-first))
		default:
			gen.skip(r, cls, c.TestX.Row(0))
		}
	}
}
