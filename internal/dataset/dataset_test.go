package dataset

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestGenerateBasicInvariants(t *testing.T) {
	fed, err := CIFAR10Like(20, 2, ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Clients) != 20 {
		t.Fatalf("client count %d", len(fed.Clients))
	}
	if fed.InDim != 3*10*10 || fed.Classes != 10 {
		t.Fatalf("geometry wrong: dim=%d classes=%d", fed.InDim, fed.Classes)
	}
	for i, c := range fed.Clients {
		if c.NumTrain() < 1 || c.NumTest() < 1 {
			t.Fatalf("client %d has empty split: %d/%d", i, c.NumTrain(), c.NumTest())
		}
		if c.TrainX.R != len(c.TrainY) || c.TestX.R != len(c.TestY) {
			t.Fatalf("client %d X/Y row mismatch", i)
		}
		for _, y := range c.TrainY {
			if y < 0 || y >= fed.Classes {
				t.Fatalf("client %d label out of range: %d", i, y)
			}
		}
	}
}

func TestNonIIDClassRestriction(t *testing.T) {
	fed, err := CIFAR10Like(10, 2, ScaleSmall, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range fed.Clients {
		seen := map[int]bool{}
		for _, y := range c.TrainY {
			seen[y] = true
		}
		for _, y := range c.TestY {
			seen[y] = true
		}
		if len(seen) > 2 {
			t.Fatalf("client %d holds %d classes, want <= 2", i, len(seen))
		}
	}
}

func TestIIDCoversManyClasses(t *testing.T) {
	fed, err := CIFAR10Like(4, 0, ScaleMedium, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range fed.Clients {
		for _, y := range c.TrainY {
			seen[y] = true
		}
	}
	if len(seen) < 8 {
		t.Fatalf("IID data only covers %d classes", len(seen))
	}
}

func TestAllClassesCoveredAcrossClients(t *testing.T) {
	// Even at 2 classes/client, the rotation must cover all 10 classes
	// across enough clients.
	fed, err := CIFAR10Like(10, 2, ScaleSmall, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range fed.Clients {
		for _, y := range c.TrainY {
			seen[y] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("rotation covers %d/10 classes", len(seen))
	}
}

func TestDeterminism(t *testing.T) {
	a, err := FashionLike(5, 2, ScaleSmall, 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FashionLike(5, 2, ScaleSmall, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Clients {
		if !slices.Equal(a.Clients[i].TrainX.Data, b.Clients[i].TrainX.Data) {
			t.Fatalf("client %d data differs across identical generations", i)
		}
	}
	c, err := FashionLike(5, 2, ScaleSmall, 78)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a.Clients[0].TrainX.Data, c.Clients[0].TrainX.Data) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestPowerLawHeterogeneity(t *testing.T) {
	fed, err := FEMNISTLike(40, ScaleMedium, 5)
	if err != nil {
		t.Fatal(err)
	}
	minN, maxN := 1<<30, 0
	for _, c := range fed.Clients {
		n := c.NumTrain() + c.NumTest()
		if n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
	}
	if maxN < 2*minN {
		t.Fatalf("power-law sizes look uniform: min=%d max=%d", minN, maxN)
	}
}

func TestTokenDataInVocab(t *testing.T) {
	fed, err := RedditLike(8, ScaleSmall, 6)
	if err != nil {
		t.Fatal(err)
	}
	if fed.Vocab == 0 || fed.SeqLen != 10 {
		t.Fatalf("token geometry wrong: %+v", fed)
	}
	for _, c := range fed.Clients {
		for i := 0; i < c.TrainX.R; i++ {
			for _, v := range c.TrainX.Row(i) {
				id := int(v)
				if id < 0 || id >= fed.Vocab || float64(id) != v {
					t.Fatalf("non-token value %v", v)
				}
			}
		}
	}
}

func TestImageDataIsLearnable(t *testing.T) {
	// A small MLP trained on pooled client data should beat chance by a
	// wide margin — guards against generators emitting unlearnable noise.
	fed, err := FashionLike(6, 0, ScaleMedium, 7)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range fed.Clients {
		total += c.NumTrain()
	}
	x := tensor.NewMat(total, fed.InDim)
	y := make([]int, 0, total)
	row := 0
	for _, c := range fed.Clients {
		for i := 0; i < c.TrainX.R; i++ {
			copy(x.Row(row), c.TrainX.Row(i))
			row++
		}
		y = append(y, c.TrainY...)
	}
	model := nn.NewMLP(rng.New(8), fed.InDim, 32, fed.Classes)
	for epoch := 0; epoch < 40; epoch++ {
		model.ZeroGrad()
		model.Backprop(x, y)
		tensor.Axpy(-0.5, model.Grads(), model.Weights())
	}
	correct, _ := model.Eval(x, y)
	acc := float64(correct) / float64(total)
	if acc < 0.5 {
		t.Fatalf("pooled training accuracy only %.2f — generator not learnable", acc)
	}
}

func TestTokenDataIsLearnable(t *testing.T) {
	fed, err := RedditLike(6, ScaleSmall, 9)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range fed.Clients {
		total += c.NumTrain()
	}
	x := tensor.NewMat(total, fed.SeqLen)
	y := make([]int, 0, total)
	rowi := 0
	for _, c := range fed.Clients {
		for i := 0; i < c.TrainX.R; i++ {
			copy(x.Row(rowi), c.TrainX.Row(i))
			rowi++
		}
		y = append(y, c.TrainY...)
	}
	model := nn.NewLSTMClassifier(rng.New(10), nn.LSTMConfig{
		Vocab: fed.Vocab, Emb: 8, Hidden: 16, SeqLen: fed.SeqLen, Classes: fed.Classes,
	})
	adam := opt.NewAdam(0.02)
	for epoch := 0; epoch < 300; epoch++ {
		model.ZeroGrad()
		model.Backprop(x, y)
		adam.Step(model.Weights(), model.Grads())
	}
	correct, _ := model.Eval(x, y)
	acc := float64(correct) / float64(total)
	// Chance is 1/64; the chain's primary successor is drawn half the time.
	if acc < 0.2 {
		t.Fatalf("token training accuracy only %.3f — generator not learnable", acc)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Name: "noClients", Classes: 2, SamplesPerClient: 10, ImgC: 1, ImgH: 2, ImgW: 2},
		{Name: "oneClass", NumClients: 2, Classes: 1, SamplesPerClient: 10, ImgC: 1, ImgH: 2, ImgW: 2},
		{Name: "noMode", NumClients: 2, Classes: 2, SamplesPerClient: 10},
		{Name: "bothModes", NumClients: 2, Classes: 2, SamplesPerClient: 10, ImgC: 1, ImgH: 2, ImgW: 2, Vocab: 2, SeqLen: 3},
		{Name: "vocabMismatch", NumClients: 2, Classes: 3, SamplesPerClient: 10, Vocab: 4, SeqLen: 3},
		{Name: "tinySamples", NumClients: 2, Classes: 2, SamplesPerClient: 2, ImgC: 1, ImgH: 2, ImgW: 2},
	}
	for _, cfg := range cases {
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("config %q should have been rejected", cfg.Name)
		}
	}
}

func TestAssignClassesProperties(t *testing.T) {
	f := func(clientRaw, perRaw, classesRaw uint8) bool {
		classes := int(classesRaw%30) + 2
		per := int(perRaw)%classes + 1
		client := int(clientRaw)
		got := appendClasses(nil, client, per, classes)
		if len(got) != per {
			return false
		}
		seen := map[int]bool{}
		for _, c := range got {
			if c < 0 || c >= classes || seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleSamples(t *testing.T) {
	if ScaleSmall.samples(1, 2, 3) != 1 || ScaleMedium.samples(1, 2, 3) != 2 || ScalePaper.samples(1, 2, 3) != 3 {
		t.Fatal("Scale.samples mapping wrong")
	}
}
