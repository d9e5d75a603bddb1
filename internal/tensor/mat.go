package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// Mat is a dense, row-major matrix. Data is length R*C; element (i,j) lives
// at Data[i*C+j]. The zero value is an empty matrix.
type Mat struct {
	R, C int
	Data []float64
}

// NewMat allocates an R×C zero matrix.
func NewMat(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic("tensor: NewMat with negative dimension")
	}
	return &Mat{R: r, C: c, Data: make([]float64, r*c)}
}

// MatFrom wraps an existing slice as an R×C matrix without copying.
func MatFrom(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: MatFrom %dx%d needs %d elements, got %d", r, c, r*c, len(data)))
	}
	return &Mat{R: r, C: c, Data: data}
}

// View repoints m at an existing slice as an r×c matrix without copying —
// the zero-alloc counterpart of MatFrom for long-lived view headers that
// are retargeted every call (layer weight views, per-sample row views).
func (m *Mat) View(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: View %dx%d needs %d elements, got %d", r, c, r*c, len(data)))
	}
	m.R, m.C, m.Data = r, c, data
	return m
}

// EnsureMat returns an r×c matrix, reusing m's storage (and header) when
// its capacity suffices and allocating otherwise. Element contents are
// unspecified: callers must fully overwrite before reading. Shrinking and
// regrowing within capacity never allocates, which is what keeps layers
// alloc-free when batch shapes alternate (full batch / remainder batch /
// evaluation batches).
func EnsureMat(m *Mat, r, c int) *Mat {
	if m == nil || cap(m.Data) < r*c {
		return NewMat(r, c)
	}
	m.R, m.C, m.Data = r, c, m.Data[:r*c]
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns a view of row i (no copy).
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// parallelRowThreshold: below this many result elements the goroutine
// fan-out costs more than it saves.
const parallelRowThreshold = 16 * 1024

// gemmStrides describes how output row i of a GEMM reads its a operand:
// the row's terms are a.Data[i*rowStep + k*lda] for k in [0, kn). Plain a·b
// walks row i of a; aᵀ·b walks column i.
func gemmStrides(a *Mat, transA bool) (rowStep, lda, kn int) {
	if transA {
		return 1, a.C, a.R
	}
	return a.C, 1, a.C
}

// gemmRowsGo computes rows [lo, hi) of dst = a·b (or aᵀ·b):
// out_i = Σ_k a_ik · b_k, k ascending, terms with a_ik == 0 skipped. The
// k-outer loop streams through b row by row, so the inner loop is a
// contiguous axpy. This is the portable body behind MulInto and
// MulTransAInto and the oracle the amd64 row kernel is held to bit for bit
// (TestGemmMatchesReference, FuzzGemmRow).
func gemmRowsGo(dst, a, b *Mat, transA bool, lo, hi int) {
	rowStep, lda, kn := gemmStrides(a, transA)
	for i := lo; i < hi; i++ {
		out := dst.Row(i)
		Zero(out)
		for k := 0; k < kn; k++ {
			av := a.Data[i*rowStep+k*lda]
			if av == 0 {
				continue
			}
			Axpy(av, b.Row(k), out)
		}
	}
}

// rowBlock returns worker c's share of n output rows when a GEMM is split
// over parallel.Workers(n) workers: one contiguous block each (the split
// parallel.For itself would make), so the row kernel's scratch is set up
// once per worker rather than once per row. It is recomputed inside the
// worker instead of captured: the closures below capture exactly dst, a
// and b, which keeps them in the allocation size class they always had.
func rowBlock(n, c int) (lo, hi int) {
	w := parallel.Workers(n)
	per := (n + w - 1) / w
	return min(c*per, n), min((c+1)*per, n)
}

// checkNoAlias panics when dst shares storage with an operand. The GEMMs
// read a and b while dst is partly written — the row kernel even holds
// output columns in registers — so an aliased call has no defined result.
func checkNoAlias(op string, dst, a, b *Mat) {
	if overlaps(dst.Data, a.Data) || overlaps(dst.Data, b.Data) {
		panic("tensor: " + op + " dst aliases an operand")
	}
}

// MulInto computes dst = a·b. Shapes must satisfy a.C == b.R,
// dst.R == a.R, dst.C == b.C. dst must not alias a or b (panics).
func MulInto(dst, a, b *Mat) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic(fmt.Sprintf("tensor: MulInto shape mismatch (%dx%d)·(%dx%d)→(%dx%d)",
			a.R, a.C, b.R, b.C, dst.R, dst.C))
	}
	checkNoAlias("MulInto", dst, a, b)
	if dst.R*dst.C >= parallelRowThreshold && dst.R > 1 {
		parallel.For(parallel.Workers(dst.R), func(c int) {
			lo, hi := rowBlock(dst.R, c)
			gemmRows(dst, a, b, false, lo, hi)
		})
		return
	}
	// Serial path: no closure, so small multiplies (every batch step of the
	// training hot path) allocate nothing.
	gemmRows(dst, a, b, false, 0, dst.R)
}

// MulTransAInto computes dst = aᵀ·b without materializing aᵀ.
// Shapes: a is K×M, b is K×N, dst is M×N. dst must not alias a or b
// (panics).
func MulTransAInto(dst, a, b *Mat) {
	if a.R != b.R || dst.R != a.C || dst.C != b.C {
		panic(fmt.Sprintf("tensor: MulTransAInto shape mismatch (%dx%d)ᵀ·(%dx%d)→(%dx%d)",
			a.R, a.C, b.R, b.C, dst.R, dst.C))
	}
	checkNoAlias("MulTransAInto", dst, a, b)
	if dst.R >= 4 && dst.R*dst.C >= parallelRowThreshold {
		parallel.For(parallel.Workers(dst.R), func(c int) {
			lo, hi := rowBlock(dst.R, c)
			gemmRows(dst, a, b, true, lo, hi)
		})
		return
	}
	gemmRows(dst, a, b, true, 0, dst.R)
}

// MulTransBInto computes dst = a·bᵀ without materializing bᵀ.
// Shapes: a is M×K, b is N×K, dst is M×N. dst must not alias a or b
// (panics).
func MulTransBInto(dst, a, b *Mat) {
	if a.C != b.C || dst.R != a.R || dst.C != b.R {
		panic(fmt.Sprintf("tensor: MulTransBInto shape mismatch (%dx%d)·(%dx%d)ᵀ→(%dx%d)",
			a.R, a.C, b.R, b.C, dst.R, dst.C))
	}
	checkNoAlias("MulTransBInto", dst, a, b)
	if dst.R*dst.C >= parallelRowThreshold && dst.R > 1 {
		parallel.For(a.R, func(i int) { mulTransBRow(dst, a, b, i) })
		return
	}
	// Serial path kept closure-free for the per-batch-step callers.
	for i := 0; i < a.R; i++ {
		mulTransBRow(dst, a, b, i)
	}
}

// mulTransBRow computes row i of dst = a·bᵀ: out_j = ⟨a_i, b_j⟩.
//
// Four output columns are produced per pass with four independent
// accumulators — one per dot product, each fed in plain index order, so
// every out_j sees exactly the summation sequence of a naive Dot. The
// interleave exists for instruction-level parallelism: a single dot's adds
// form one dependency chain, four chains keep the FP adder busy.
func mulTransBRow(dst, a, b *Mat, i int) {
	arow := a.Row(i)
	out := dst.Row(i)
	n := len(arow)
	j := 0
	for ; j+4 <= b.R; j += 4 {
		b0 := b.Row(j)[:n]
		b1 := b.Row(j + 1)[:n]
		b2 := b.Row(j + 2)[:n]
		b3 := b.Row(j + 3)[:n]
		var s0, s1, s2, s3 float64
		for k, av := range arow {
			s0 += av * b0[k]
			s1 += av * b1[k]
			s2 += av * b2[k]
			s3 += av * b3[k]
		}
		out[j] = s0
		out[j+1] = s1
		out[j+2] = s2
		out[j+3] = s3
	}
	for ; j < b.R; j++ {
		out[j] = Dot(arow, b.Row(j))
	}
}

// AddRowVec adds the length-C vector v to every row of m, in place.
func (m *Mat) AddRowVec(v []float64) {
	if len(v) != m.C {
		panic("tensor: AddRowVec length mismatch")
	}
	for i := 0; i < m.R; i++ {
		AddTo(m.Row(i), v)
	}
}

// ColSumsInto writes the per-column sums of m into out (length C).
func (m *Mat) ColSumsInto(out []float64) {
	if len(out) != m.C {
		panic("tensor: ColSumsInto length mismatch")
	}
	Zero(out)
	for i := 0; i < m.R; i++ {
		AddTo(out, m.Row(i))
	}
}
