//go:build amd64

package tensor

import "math"

// gemmChunk is how many non-zero terms of one output row are compacted
// before the asm tiles run over them: 64 × 24 B keeps the list in 1.5 kB of
// stack, and a row with more non-zero terms simply takes another pass, its
// accumulators reloaded from out.
const gemmChunk = 64

// gemmTerm is one non-zero a value of an output row, laid out for
// gemmRowAsm: the value pre-broadcast to both SSE2 lanes and the byte
// offset of its b row.
type gemmTerm struct {
	a   [2]float64
	off uintptr
}

// gemmRowAsm adds terms[0:cnt] into out[0:n] (gemm_amd64.s): per column,
// out[j] += terms[e].a·b[terms[e].off/8+j] for e ascending, mul then add,
// the column held in a register between terms. cnt must be positive.
//
//go:noescape
func gemmRowAsm(out *float64, n int, b *float64, terms *gemmTerm, cnt int)

// gemmRows computes rows [lo, hi) of dst with the register-blocked kernel,
// bit-identical to gemmRowsGo.
//
// The a == 0 skip is resolved once per (row, k), here, not once per column
// tile in the asm: ReLU-masked gradients make that test a coin flip, and a
// mispredicted branch per tile costs more than the multiplies it saves. The
// compaction itself is branch-free for the same reason — every term is
// written, and the cursor advances by the non-zero test computed on the
// value's bits (x|-x has its top bit set iff x != 0; the shift drops the
// sign, so ±0 are skipped and NaN is kept, exactly as av == 0 decides).
func gemmRows(dst, a, b *Mat, transA, acc bool, lo, hi int) {
	n := dst.C
	rowStep, lda, kn := gemmStrides(a, transA)
	if n == 0 || kn == 0 {
		if !acc {
			Zero(dst.Data[lo*n : hi*n])
		}
		return
	}
	bd := b.Data[:kn*n]
	var terms [gemmChunk]gemmTerm
	for i := lo; i < hi; i++ {
		out := dst.Data[i*n : (i+1)*n]
		if !acc {
			Zero(out)
		}
		arow := a.Data[i*rowStep:]
		for k := 0; k < kn; {
			cnt := 0
			for ; k < kn && cnt < gemmChunk; k++ {
				av := arow[k*lda]
				terms[cnt] = gemmTerm{a: [2]float64{av, av}, off: uintptr(k*n) * 8}
				x := math.Float64bits(av) << 1
				cnt += int((x | -x) >> 63)
			}
			if cnt > 0 {
				gemmRowAsm(&out[0], n, &bd[0], &terms[0], cnt)
			}
		}
	}
}

// mulTransBRowAsm computes out[0:n] = a[0:k]·bᵀ, b n rows of k, or with acc
// adds each dot product onto out (gemm_amd64.s). k and n must be positive.
//
//go:noescape
func mulTransBRowAsm(out, a *float64, k int, b *float64, n int, acc bool)

// mulTransBRow computes row i of dst = a·bᵀ (dst += with acc) with the
// SSE2 dot kernel, bit-identical to mulTransBRowGo.
func mulTransBRow(dst, a, b *Mat, i int, acc bool) {
	if a.C == 0 || b.R == 0 {
		mulTransBRowGo(dst, a, b, i, acc)
		return
	}
	mulTransBRowAsm(&dst.Data[i*dst.C], &a.Data[i*a.C], a.C, &b.Data[0], b.R, acc)
}
