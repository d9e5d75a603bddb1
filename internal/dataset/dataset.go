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

	// Synthesis scratch of Source.ClientInto — the shard's class subset and
	// its sample stream — kept here so refilling a reused shard allocates
	// nothing.
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

// ClientInto returns client i's retained shard and ignores dst — the same
// surface a lazy Source answers by synthesizing into dst, so the federation
// layer runs over either.
func (f *Federated) ClientInto(_ *ClientData, i int) *ClientData { return f.Clients[i] }

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
	return src.Federated(), nil
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

// genClientInto draws n samples for a client restricted to its class subset
// and splits them train/test (numTrain) into c, reusing c's matrices and
// label slices when their capacity suffices. Every element is overwritten,
// so a dirty c yields the shard a fresh one would.
func genClientInto(c *ClientData, r *rng.RNG, gen sampleGen, classes []int, n int, inDim int) {
	nTrain := numTrain(n)
	nTest := n - nTrain

	c.TrainX = tensor.EnsureMat(c.TrainX, nTrain, inDim)
	c.TestX = tensor.EnsureMat(c.TestX, nTest, inDim)
	c.TrainY = slices.Grow(c.TrainY[:0], nTrain)[:nTrain]
	c.TestY = slices.Grow(c.TestY[:0], nTest)[:nTest]
	for i := 0; i < n; i++ {
		cls := classes[r.Intn(len(classes))]
		if i < nTrain {
			c.TrainY[i] = gen.sample(r, cls, c.TrainX.Row(i))
		} else {
			c.TestY[i-nTrain] = gen.sample(r, cls, c.TestX.Row(i-nTrain))
		}
	}
}
