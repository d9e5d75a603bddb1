package tensor

import (
	"fmt"
	"sync"

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

// parallelRowThreshold: below this many result elements waking helpers
// costs more than it saves.
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

// gemmRowsGo computes rows [lo, hi) of dst = a·b (or aᵀ·b), or with acc
// dst += a·b: out_i = Σ_k a_ik · b_k, k ascending, terms with a_ik == 0
// skipped, the chain starting from +0 (from dst's row with acc). The
// k-outer loop streams through b row by row, so the inner loop is a
// contiguous axpy. This is the portable body behind MulInto, MulTransAInto
// and AddMulTransA and the oracle the amd64 row kernel is held to bit for
// bit (TestGemmMatchesReference, FuzzGemmRow).
func gemmRowsGo(dst, a, b *Mat, transA, acc bool, lo, hi int) {
	rowStep, lda, kn := gemmStrides(a, transA)
	for i := lo; i < hi; i++ {
		out := dst.Row(i)
		if !acc {
			Zero(out)
		}
		for k := 0; k < kn; k++ {
			av := a.Data[i*rowStep+k*lda]
			if av == 0 {
				continue
			}
			Axpy(av, b.Row(k), out)
		}
	}
}

// gemmJob is one GEMM fanned out over parallel.Workers(dst.R) contiguous
// row blocks. rows is bound once, when getGemmJob builds the job, so the
// fan-out hands parallel a prebuilt body and allocates nothing; a block
// covers many rows, so the row kernel's scratch is set up once per block
// rather than once per row.
type gemmJob struct {
	dst, a, b           *Mat
	transA, transB, acc bool
	per                 int // rows per block
	rows                func(c int)
}

// gemmJobs is the free list of idle GEMM jobs. Unlike a sync.Pool it is not
// emptied by a collection, and a job put back on one P is found by the next
// GEMM on any P, so it holds as many jobs as GEMMs have ever run at once and
// allocates no more.
var gemmJobs struct {
	mu   sync.Mutex
	free []*gemmJob
}

// getGemmJob takes an idle job, or builds one when none is idle.
func getGemmJob() *gemmJob {
	gemmJobs.mu.Lock()
	defer gemmJobs.mu.Unlock()
	k := len(gemmJobs.free)
	if k == 0 {
		g := new(gemmJob)
		g.rows = g.block
		return g
	}
	g := gemmJobs.free[k-1]
	gemmJobs.free = gemmJobs.free[:k-1]
	return g
}

// block computes block c of dst's rows.
func (g *gemmJob) block(c int) {
	lo, hi := min(c*g.per, g.dst.R), min((c+1)*g.per, g.dst.R)
	if g.transB {
		for i := lo; i < hi; i++ {
			mulTransBRow(g.dst, g.a, g.b, i, g.acc)
		}
		return
	}
	gemmRows(g.dst, g.a, g.b, g.transA, g.acc, lo, hi)
}

// gemmParallel computes dst = op(a)·op(b) (dst += with acc) block by block
// through parallel, which runs the blocks inline when no helper is idle
// (the GEMM is nested in a cohort member's training).
func gemmParallel(dst, a, b *Mat, transA, transB, acc bool) {
	w := parallel.Workers(dst.R)
	g := getGemmJob()
	g.dst, g.a, g.b, g.transA, g.transB, g.acc = dst, a, b, transA, transB, acc
	g.per = (dst.R + w - 1) / w
	parallel.For(w, g.rows)
	g.dst, g.a, g.b = nil, nil, nil
	gemmJobs.mu.Lock()
	gemmJobs.free = append(gemmJobs.free, g)
	gemmJobs.mu.Unlock()
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
		gemmParallel(dst, a, b, false, false, false)
		return
	}
	gemmRows(dst, a, b, false, false, 0, dst.R)
}

// MulTransAInto computes dst = aᵀ·b without materializing aᵀ.
// Shapes: a is K×M, b is K×N, dst is M×N. dst must not alias a or b
// (panics).
func MulTransAInto(dst, a, b *Mat) { mulTransA("MulTransAInto", dst, a, b, false) }

// AddMulTransA computes dst += aᵀ·b: each element's terms are added onto
// it in k order, exactly as MulTransAInto adds them onto +0, so on a dst
// of +0s the result is MulTransAInto's bit for bit (a chain that starts
// at +0 never yields −0). On any other dst it differs from MulTransAInto
// plus AddTo, which rounds the finished sum once more. Shapes and aliasing
// as MulTransAInto.
func AddMulTransA(dst, a, b *Mat) { mulTransA("AddMulTransA", dst, a, b, true) }

func mulTransA(op string, dst, a, b *Mat, acc bool) {
	if a.R != b.R || dst.R != a.C || dst.C != b.C {
		panic(fmt.Sprintf("tensor: %s shape mismatch (%dx%d)ᵀ·(%dx%d)→(%dx%d)",
			op, a.R, a.C, b.R, b.C, dst.R, dst.C))
	}
	checkNoAlias(op, dst, a, b)
	if dst.R >= 4 && dst.R*dst.C >= parallelRowThreshold {
		gemmParallel(dst, a, b, true, false, acc)
		return
	}
	gemmRows(dst, a, b, true, acc, 0, dst.R)
}

// MulTransBInto computes dst = a·bᵀ without materializing bᵀ.
// Shapes: a is M×K, b is N×K, dst is M×N. dst must not alias a or b
// (panics).
func MulTransBInto(dst, a, b *Mat) { mulTransB("MulTransBInto", dst, a, b, false) }

// AddMulTransB computes dst += a·bᵀ as dst + ⟨a_i, b_j⟩ per element, the
// dot product summed from +0 first: bit for bit MulTransBInto into a
// scratch followed by AddTo(dst, scratch), for any dst. Shapes and
// aliasing as MulTransBInto.
func AddMulTransB(dst, a, b *Mat) { mulTransB("AddMulTransB", dst, a, b, true) }

func mulTransB(op string, dst, a, b *Mat, acc bool) {
	if a.C != b.C || dst.R != a.R || dst.C != b.R {
		panic(fmt.Sprintf("tensor: %s shape mismatch (%dx%d)·(%dx%d)ᵀ→(%dx%d)",
			op, a.R, a.C, b.R, b.C, dst.R, dst.C))
	}
	checkNoAlias(op, dst, a, b)
	if dst.R*dst.C >= parallelRowThreshold && dst.R > 1 {
		gemmParallel(dst, a, b, false, true, acc)
		return
	}
	for i := 0; i < a.R; i++ {
		mulTransBRow(dst, a, b, i, acc)
	}
}

// mulTransBRowGo computes row i of dst = a·bᵀ: out_j = ⟨a_i, b_j⟩, or with
// acc out_j += ⟨a_i, b_j⟩, the dot product summed from +0 before it is
// added. It is the portable body of mulTransBRow and the oracle the amd64
// kernel is held to bit for bit (TestMulTransBMatchesReference,
// FuzzMulTransBRow).
//
// Four output columns are produced per pass with four independent
// accumulators — one per dot product, each fed in plain index order, so
// every out_j sees exactly the summation sequence of a naive dot. The
// interleave exists for instruction-level parallelism: a single dot's adds
// form one dependency chain, four chains keep the FP adder busy.
func mulTransBRowGo(dst, a, b *Mat, i int, acc bool) {
	arow := a.Row(i)
	out := dst.Row(i)
	put := func(j int, s float64) {
		if acc {
			out[j] += s
		} else {
			out[j] = s
		}
	}
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
		put(j, s0)
		put(j+1, s1)
		put(j+2, s2)
		put(j+3, s3)
	}
	for ; j < b.R; j++ {
		put(j, dot(arow, b.Row(j)))
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
