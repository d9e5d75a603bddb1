package nn

import "repro/internal/rng"

// This file holds builders for the architectures the paper trains (§6,
// "Models"), parameterized so experiments can run them at reduced width.

// CNNConfig describes the convolutional classifier used for CIFAR-10,
// Fashion-MNIST and FEMNIST. The paper's network is three conv layers
// (32/64/64 filters) followed by dense 64 and a classifier head; the
// defaults here keep that shape at reduced channel counts so a full
// federated experiment runs in seconds.
type CNNConfig struct {
	inC, h, w int   // input geometry
	convC     []int // channels per conv layer
	kernel    int
	hidden    int
	classes   int
	PoolEvery int // insert a 2×2 max-pool after every PoolEvery convs (0 = none)
}

// SmallCNN returns a reduced config that preserves the three-conv shape.
func SmallCNN(inC, h, w, classes int) CNNConfig {
	return CNNConfig{inC: inC, h: h, w: w, convC: []int{8, 16, 16}, kernel: 3, hidden: 32, classes: classes, PoolEvery: 1}
}

// NewCNN builds the convolutional classifier.
func NewCNN(r *rng.RNG, cfg CNNConfig) *Network {
	var layers []layer
	c, h, w := cfg.inC, cfg.h, cfg.w
	for i, outC := range cfg.convC {
		conv := newConv2D(c, h, w, outC, cfg.kernel, 1, cfg.kernel/2)
		layers = append(layers, conv, newReLU())
		c, h, w = conv.outShape()
		if cfg.PoolEvery > 0 && (i+1)%cfg.PoolEvery == 0 && h >= 2 && w >= 2 {
			pool := newMaxPool2D(c, h, w, 2, 2)
			layers = append(layers, pool)
			c, h, w = pool.outShape()
		}
	}
	layers = append(layers,
		newDense(c*h*w, cfg.hidden),
		newReLU(),
		newDense(cfg.hidden, cfg.classes),
	)
	return newNetwork(r, layers...)
}

// NewMLP builds a plain multilayer perceptron with ReLU between layers;
// dims is input, hidden..., classes. Used as the fast stand-in model when
// an experiment's point is the FL dynamics rather than the architecture.
func NewMLP(r *rng.RNG, dims ...int) *Network {
	if len(dims) < 2 {
		panic("nn: NewMLP needs at least input and output dims")
	}
	var layers []layer
	for i := 0; i < len(dims)-1; i++ {
		layers = append(layers, newDense(dims[i], dims[i+1]))
		if i < len(dims)-2 {
			layers = append(layers, newReLU())
		}
	}
	return newNetwork(r, layers...)
}

// NewLogistic builds the multinomial logistic-regression model the paper
// uses for Sentiment140 (its convex objective).
func NewLogistic(r *rng.RNG, in, classes int) *Network {
	return newNetwork(r, newDense(in, classes))
}

// LSTMConfig describes the Reddit next-token-style classifier: embedding →
// LSTM → dropout → batch-norm → dense, mirroring the paper's Reddit model
// (embedding 10000→128, LSTM with dropout 0.1, batch norm, dense 10000) at
// configurable scale.
type LSTMConfig struct {
	Vocab, Emb, Hidden, SeqLen, Classes int
	Dropout                             float64
	BatchNorm                           bool
}

// NewLSTMClassifier builds the sequence classifier.
func NewLSTMClassifier(r *rng.RNG, cfg LSTMConfig) *Network {
	layers := []layer{
		newEmbedding(cfg.Vocab, cfg.Emb, cfg.SeqLen),
		newLSTM(cfg.Emb, cfg.Hidden, cfg.SeqLen),
	}
	if cfg.Dropout > 0 {
		layers = append(layers, newDropout(cfg.Dropout))
	}
	if cfg.BatchNorm {
		layers = append(layers, newBatchNorm(cfg.Hidden))
	}
	layers = append(layers, newDense(cfg.Hidden, cfg.Classes))
	return newNetwork(r, layers...)
}
