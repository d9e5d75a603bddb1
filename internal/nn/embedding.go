package nn

import (
	"repro/internal/codec"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Embedding maps integer token ids (carried as float64s for interface
// uniformity) to dense vectors. Input rows are sequences of SeqLen ids;
// output rows are the SeqLen embedding vectors concatenated.
type Embedding struct {
	Vocab, Dim, SeqLen int

	w, g []float64 // Vocab×Dim table

	ids     []int32 // cached token ids of last training forward
	out, dx *tensor.Mat
}

// NewEmbedding constructs an embedding table for sequences of seqLen tokens
// drawn from a vocab of the given size.
func NewEmbedding(vocab, dim, seqLen int) *Embedding {
	if vocab <= 0 || dim <= 0 || seqLen <= 0 {
		panic("nn: Embedding invalid dimensions")
	}
	return &Embedding{Vocab: vocab, Dim: dim, SeqLen: seqLen}
}

// ParamShapes implements Layer.
func (e *Embedding) ParamShapes() []codec.ShapeInfo {
	return []codec.ShapeInfo{{Name: "E", Dims: []int{e.Vocab, e.Dim}}}
}

// Bind implements Layer.
func (e *Embedding) Bind(w, g []float64) {
	checkBind(e, w, g)
	e.w, e.g = w, g
}

// Init implements Layer.
func (e *Embedding) Init(r *rng.RNG) {
	initUniform(r, e.w, 0.05)
}

// OutDim implements Layer.
func (e *Embedding) OutDim(int) int { return e.SeqLen * e.Dim }

// Forward implements Layer. Out-of-range ids are clamped into the vocab so a
// corrupted sample cannot crash a training run.
func (e *Embedding) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.C != e.SeqLen {
		panic("nn: Embedding input width mismatch")
	}
	b := x.R
	// Capacity-based reuse: every element of both is written below.
	e.out = tensor.EnsureMat(e.out, b, e.SeqLen*e.Dim)
	if cap(e.ids) < b*e.SeqLen {
		e.ids = make([]int32, b*e.SeqLen)
	}
	e.ids = e.ids[:b*e.SeqLen]
	for s := 0; s < b; s++ {
		in := x.Row(s)
		out := e.out.Row(s)
		for t := 0; t < e.SeqLen; t++ {
			id := int(in[t])
			if id < 0 {
				id = 0
			}
			if id >= e.Vocab {
				id = e.Vocab - 1
			}
			e.ids[s*e.SeqLen+t] = int32(id)
			copy(out[t*e.Dim:(t+1)*e.Dim], e.w[id*e.Dim:(id+1)*e.Dim])
		}
	}
	return e.out
}

// Backward implements Layer. The returned input gradient is zero (token ids
// are not differentiable); the embedding table gradient is scattered.
func (e *Embedding) Backward(dout *tensor.Mat) *tensor.Mat {
	b := dout.R
	for s := 0; s < b; s++ {
		src := dout.Row(s)
		for t := 0; t < e.SeqLen; t++ {
			id := int(e.ids[s*e.SeqLen+t])
			tensor.AddTo(e.g[id*e.Dim:(id+1)*e.Dim], src[t*e.Dim:(t+1)*e.Dim])
		}
	}
	e.dx = tensor.EnsureMat(e.dx, b, e.SeqLen)
	tensor.Zero(e.dx.Data)
	return e.dx
}
