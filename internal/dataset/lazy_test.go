package dataset

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// sourceConfigs spans the generator modes: image prototypes, token walks,
// power-law sizes, non-IID class subsets.
func sourceConfigs() map[string]Config {
	return map[string]Config{
		"image": {
			Name: "imglike", NumClients: 20, Classes: 10, SamplesPerClient: 24,
			ClassesPerClient: 2, Seed: 9, ImgC: 1, ImgH: 6, ImgW: 6,
			Signal: 0.3, Noise: 1.0,
		},
		"image-powerlaw": {
			Name: "femnistlike", NumClients: 15, Classes: 12, SamplesPerClient: 30,
			ClassesPerClient: 4, PowerLaw: true, Seed: 31, ImgC: 1, ImgH: 5, ImgW: 5,
		},
		"token": {
			Name: "redditlike", NumClients: 12, Classes: 16, SamplesPerClient: 20,
			ClassesPerClient: 3, PowerLaw: true, Seed: 4, Vocab: 16, SeqLen: 8,
		},
	}
}

func sameClient(t *testing.T, name string, i int, want, got *ClientData) {
	t.Helper()
	if want.NumTrain() != got.NumTrain() || want.NumTest() != got.NumTest() {
		t.Fatalf("%s client %d: split %d/%d vs %d/%d",
			name, i, want.NumTrain(), want.NumTest(), got.NumTrain(), got.NumTest())
	}
	for r := 0; r < want.NumTrain(); r++ {
		if want.TrainY[r] != got.TrainY[r] {
			t.Fatalf("%s client %d train row %d: label %d vs %d", name, i, r, want.TrainY[r], got.TrainY[r])
		}
		wr, gr := want.TrainX.Row(r), got.TrainX.Row(r)
		for c := range wr {
			if wr[c] != gr[c] {
				t.Fatalf("%s client %d train row %d col %d: %v vs %v", name, i, r, c, wr[c], gr[c])
			}
		}
	}
	for r := 0; r < want.NumTest(); r++ {
		if want.TestY[r] != got.TestY[r] {
			t.Fatalf("%s client %d test row %d: label mismatch", name, i, r)
		}
		wr, gr := want.TestX.Row(r), got.TestX.Row(r)
		for c := range wr {
			if wr[c] != gr[c] {
				t.Fatalf("%s client %d test row %d col %d: %v vs %v", name, i, r, c, wr[c], gr[c])
			}
		}
	}
}

// TestSourceMatchesEagerGenerate pins the lazy contract: a shard
// synthesized on demand — in any order — is byte-for-byte the shard the
// original eager Generate built, and the pure NumTrain arithmetic matches
// the generated split.
func TestSourceMatchesEagerGenerate(t *testing.T) {
	for name, cfg := range sourceConfigs() {
		t.Run(name, func(t *testing.T) {
			want, err := generateEager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewSource(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if src.InDim() != want.InDim || src.Classes() != want.Classes {
				t.Fatalf("geometry: (%d,%d) vs (%d,%d)", src.InDim(), src.Classes(), want.InDim, want.Classes)
			}
			// Scrambled generation order: shards are pure in (cfg, id).
			n := cfg.NumClients
			for j := 0; j < n; j++ {
				i := (j*7 + 3) % n
				if got := src.NumTrain(i); got != want.Clients[i].NumTrain() {
					t.Fatalf("client %d: NumTrain %d vs generated %d", i, got, want.Clients[i].NumTrain())
				}
				sameClient(t, name, i, want.Clients[i], src.Client(i))
			}
			// Regeneration is idempotent: a dropped-and-rebuilt shard is
			// identical to its first synthesis.
			sameClient(t, name, 0, src.Client(0), src.Client(0))
		})
	}
	// At population scale the indexed size draw must still be the
	// sequential stream's: every NumTrain against the oracle's counts, for
	// a uniform and a power-law dataset (whose every size divides by the
	// sum over all N).
	for name, cfg := range map[string]Config{
		"uniform-20k": {
			Name: "scalelike", NumClients: 20_000, Classes: 10, SamplesPerClient: 24,
			ClassesPerClient: 2, Seed: 42, ImgC: 1, ImgH: 4, ImgW: 4,
		},
		"powerlaw-20k": {
			Name: "femnistlike", NumClients: 20_000, Classes: 12, SamplesPerClient: 30,
			ClassesPerClient: 4, PowerLaw: true, Seed: 31, ImgC: 1, ImgH: 4, ImgW: 4,
		},
	} {
		t.Run(name, func(t *testing.T) {
			src, err := NewSource(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.PowerLaw {
				// Every size divides by the total, so a sum in another order
				// can move a count by one; hold it to the stream's order.
				r, total := rng.New(cfg.Seed).SplitLabeled(2), 0.0
				for range cfg.NumClients {
					total += powerLawRaw(r.Float64())
				}
				if src.rawTotal != total {
					t.Fatalf("raw size total %v, the id-order sum over the stream is %v", src.rawTotal, total)
				}
			}
			for i, n := range clientSizes(rng.New(cfg.Seed).SplitLabeled(2), cfg) {
				want := max(min(int(float64(n)*trainFrac), n-1), 1)
				if got := src.NumTrain(i); got != want {
					t.Fatalf("client %d: NumTrain %d, oracle size %d splits to %d", i, got, n, want)
				}
			}
		})
	}
}

// TestGenerateDelegatesToSource guards the shell: the public Generate and
// the eager reference construct identical federations.
func TestGenerateDelegatesToSource(t *testing.T) {
	for name, cfg := range sourceConfigs() {
		t.Run(name, func(t *testing.T) {
			want, err := generateEager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Clients) != len(got.Clients) {
				t.Fatalf("client count %d vs %d", len(want.Clients), len(got.Clients))
			}
			for i := range want.Clients {
				sameClient(t, name, i, want.Clients[i], got.Clients[i])
			}
		})
	}
}

// TestClientIntoMatchesClient pins the write-into form to Client, bit for
// bit, over ONE scratch shard reused across clients in scrambled order —
// power-law sizes make it grow and shrink — and poisoned between uses, so
// any element a refill fails to overwrite shows. Once the scratch has held
// the largest shard, a refill allocates nothing.
func TestClientIntoMatchesClient(t *testing.T) {
	for name, cfg := range sourceConfigs() {
		t.Run(name, func(t *testing.T) {
			src, err := NewSource(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := cfg.NumClients
			var scratch ClientData
			grew, shrank := false, false
			for j := 0; j < 2*n; j++ {
				i := (j*7 + 3) % n
				prev := cap(scratch.TrainY)
				got := src.clientInto(&scratch, i)
				if got != &scratch {
					t.Fatal("ClientInto did not return its destination")
				}
				sameClient(t, name, i, src.Client(i), got)
				grew = grew || (prev > 0 && got.NumTrain() > prev)
				shrank = shrank || got.NumTrain() < prev
				poison(&scratch)
			}
			if cfg.PowerLaw && !(grew && shrank) {
				t.Fatalf("the scratch never had to grow (%v) and shrink (%v); the reuse paths are untested", grew, shrank)
			}
			next := 0
			if allocs := testing.AllocsPerRun(3*n, func() {
				src.clientInto(&scratch, next%n)
				next++
			}); allocs != 0 {
				t.Fatalf("refilling a grown scratch allocates %.1f times per shard", allocs)
			}
		})
	}
}

// poison overwrites everything a shard holds, including the spare capacity
// behind its slices.
func poison(c *ClientData) {
	for _, x := range [][]float64{c.TrainX.Data, c.TestX.Data} {
		x = x[:cap(x)]
		for i := range x {
			x[i] = math.NaN()
		}
	}
	for _, y := range [][]int{c.TrainY, c.TestY, c.classes} {
		y = y[:cap(y)]
		for i := range y {
			y[i] = -1
		}
	}
	c.stream.Skip(1)
}

// TestSplitIntoMatchesClientInto pins the one-split forms to clientInto: the
// split TrainInto or TestInto writes is the same rows, bit for bit, the other
// is left empty, over one poisoned scratch shared by both forms in scrambled
// client order — image, power-law and token sources, plus the benchmark's
// scale-like shape (1×10×10 images, two classes a client) — and a refill of
// a grown scratch allocates nothing.
func TestSplitIntoMatchesClientInto(t *testing.T) {
	cfgs := sourceConfigs()
	cfgs["scalelike"] = Config{
		Name: "fashionlike", NumClients: 40, Classes: 10, SamplesPerClient: 24,
		ClassesPerClient: 2, Seed: 42, ImgC: 1, ImgH: 10, ImgW: 10, Signal: 0.34, Noise: 1,
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			src, err := NewSource(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := cfg.NumClients
			var scratch ClientData
			for j := 0; j < 2*n; j++ {
				i := (j*7 + 3) % n
				want := src.Client(i)
				train := src.TrainInto(&scratch, i)
				if train != &scratch || train.NumTest() != 0 {
					t.Fatalf("client %d: TrainInto returned %p with %d test rows", i, train, train.NumTest())
				}
				sameClient(t, name+" train", i, &ClientData{TrainX: want.TrainX, TrainY: want.TrainY, TestX: train.TestX}, train)
				poison(&scratch)
				test := src.TestInto(&scratch, i)
				if test != &scratch || test.NumTrain() != 0 {
					t.Fatalf("client %d: TestInto returned %p with %d training rows", i, test, test.NumTrain())
				}
				sameClient(t, name+" test", i, &ClientData{TestX: want.TestX, TestY: want.TestY, TrainX: test.TrainX}, test)
				poison(&scratch)
			}
			next := 0
			if allocs := testing.AllocsPerRun(3*n, func() {
				src.TrainInto(&scratch, next%n)
				src.TestInto(&scratch, next%n)
				next++
			}); allocs != 0 {
				t.Fatalf("refilling a grown scratch split by split allocates %.1f times per shard", allocs)
			}
		})
	}
}

// TestReserveCoversEveryClient: a scratch shard Reserve has sized takes
// every client's training and test split, in both size families and at a
// population large enough to draw near both ends of the jitter, without
// growing any of its buffers.
func TestReserveCoversEveryClient(t *testing.T) {
	cfgs := sourceConfigs()
	wide := cfgs["image"]
	wide.NumClients = 20_000
	cfgs["image-20k"] = wide
	for name, cfg := range cfgs {
		src, err := NewSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var dst ClientData
		src.Reserve(&dst)
		caps := func() [5]int {
			return [5]int{cap(dst.TrainX.Data), cap(dst.TestX.Data), cap(dst.TrainY), cap(dst.TestY), cap(dst.classes)}
		}
		trainX, testX, want := dst.TrainX, dst.TestX, caps()
		for i := range cfg.NumClients {
			src.TrainInto(&dst, i)
			src.TestInto(&dst, i)
			if got := caps(); got != want || dst.TrainX != trainX || dst.TestX != testX {
				t.Fatalf("%s: client %d grew the reserved scratch: capacities %v, reserved %v", name, i, got, want)
			}
		}
	}
}

// TestMaxNumTrainBoundsEveryClient: a Source's config-stated bound is at
// least every client's training split, in both size families and at a
// population large enough to draw near both ends of the jitter; a retained
// federation's is exactly the largest split it holds.
func TestMaxNumTrainBoundsEveryClient(t *testing.T) {
	cfgs := sourceConfigs()
	wide := cfgs["image"]
	wide.NumClients = 20_000
	cfgs["image-20k"] = wide
	for name, cfg := range cfgs {
		src, err := NewSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bound, largest := src.MaxNumTrain(), 0
		for i := range cfg.NumClients {
			largest = max(largest, src.NumTrain(i))
		}
		if largest > bound {
			t.Errorf("%s: a client trains %d samples, above the bound %d", name, largest, bound)
		}
		if cfg.NumClients <= 20 {
			if got := src.federated().MaxNumTrain(); got != largest {
				t.Errorf("%s: retained MaxNumTrain %d, largest split %d", name, got, largest)
			}
		}
	}
}
