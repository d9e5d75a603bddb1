// SSE2 GEMM row kernel: out[0:n] += Σ_e terms[e].a · b[terms[e].off/8 : +n],
// e ascending. A 16/8/4/2/1-column tile of out lives in XMM accumulators
// across the whole term loop and is stored once.
//
// Bit-exactness contract (same as step_amd64.s and fold_amd64.s): one
// MULPD lane is one a*b[j], one ADDPD lane is one out[j] += ·, each
// correctly rounded per lane, and every column's accumulator receives its
// terms in list order. Column j therefore sees exactly the scalar sequence
// out[j] = (…((out[j] + a₀·b₀[j]) + a₁·b₁[j]) + …), whichever tile width it
// falls in. No FMA (fused rounding would diverge), no AVX. The Go wrapper
// zeroes out, compacts the non-zero a values into terms, and never calls
// with cnt == 0.

//go:build amd64

#include "textflag.h"

// One term's contribution to one accumulator: acc += a · b[off:off+2].
// X8 holds the pre-broadcast a, AX the term's b-row byte offset, SI the b
// base advanced to the tile's first column. The load is separate from the
// multiply because a legacy-SSE memory operand must be 16-byte aligned.
#define MULADD(off, tmp, acc) \
	MOVUPD off(SI)(AX*1), tmp; \
	MULPD  X8, tmp;            \
	ADDPD  tmp, acc

#define NEXTTERM \
	MOVUPD (R10), X8;   \
	MOVQ   16(R10), AX; \
	ADDQ   $24, R10

// func gemmRowAsm(out *float64, n int, b *float64, terms *gemmTerm, cnt int)
TEXT ·gemmRowAsm(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ n+8(FP), DX
	MOVQ b+16(FP), SI
	MOVQ terms+24(FP), R8
	MOVQ cnt+32(FP), R9
	LEAQ (R9)(R9*2), R9 // cnt*24 bytes of terms
	LEAQ (R8)(R9*8), R9 // R9 = one past the last term

tile16:
	CMPQ DX, $16
	JLT  tile8

	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVUPD 64(DI), X4
	MOVUPD 80(DI), X5
	MOVUPD 96(DI), X6
	MOVUPD 112(DI), X7
	MOVQ   R8, R10

loop16:
	NEXTTERM
	MULADD(0, X9, X0)
	MULADD(16, X10, X1)
	MULADD(32, X11, X2)
	MULADD(48, X12, X3)
	MULADD(64, X13, X4)
	MULADD(80, X14, X5)
	MULADD(96, X15, X6)
	MULADD(112, X9, X7)
	CMPQ R10, R9
	JB   loop16

	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	ADDQ   $128, DI
	ADDQ   $128, SI
	SUBQ   $16, DX
	JMP    tile16

tile8:
	CMPQ DX, $8
	JLT  tile4

	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVQ   R8, R10

loop8:
	NEXTTERM
	MULADD(0, X9, X0)
	MULADD(16, X10, X1)
	MULADD(32, X11, X2)
	MULADD(48, X12, X3)
	CMPQ R10, R9
	JB   loop8

	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	SUBQ   $8, DX

tile4:
	CMPQ DX, $4
	JLT  tile2

	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVQ   R8, R10

loop4:
	NEXTTERM
	MULADD(0, X9, X0)
	MULADD(16, X10, X1)
	CMPQ R10, R9
	JB   loop4

	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	SUBQ   $4, DX

tile2:
	CMPQ DX, $2
	JLT  tile1

	MOVUPD 0(DI), X0
	MOVQ   R8, R10

loop2:
	NEXTTERM
	MULADD(0, X9, X0)
	CMPQ R10, R9
	JB   loop2

	MOVUPD X0, 0(DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	SUBQ   $2, DX

tile1:
	CMPQ DX, $1
	JLT  done

	MOVSD 0(DI), X0
	MOVQ  R8, R10

loop1:
	NEXTTERM
	MOVSD (SI)(AX*1), X9
	MULSD X8, X9
	ADDSD X9, X0
	CMPQ  R10, R9
	JB    loop1

	MOVSD X0, 0(DI)

done:
	RET
