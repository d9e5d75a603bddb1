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
// zeroes out unless it accumulates, compacts the non-zero a values into
// terms, and never calls with cnt == 0.

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

// SSE2 dot-product row kernel for dst = a·bᵀ:
// out[j] = Σ_k a[k]·b[j*K+k], k ascending, from +0; with acc set, out[j] =
// out[j] + that sum instead. Eight output columns are live per pass, two
// per XMM accumulator (lane 0 column j, lane 1 column j+1), and the K loop
// takes two k per step: MULPD multiplies a[k:k+2] into one b row's pair,
// and UNPCKLPD/UNPCKHPD pair two rows' products by k, so each ADDPD lane
// is one column's next term. Every column therefore sees the scalar
// sequence ((0 + a₀b₀) + a₁b₁) + … of the Go twin (mulTransBRowGo), each
// multiply and add correctly rounded per lane, b the first operand of
// every multiply and the running sum the first operand of every add. An
// odd K ends with one broadcast single-k step; 2- and 1-column tails take
// the columns a pass of eight leaves. No FMA, no AVX. The Go wrapper
// never calls with k == 0 or n == 0.

// One step of two k for columns (p0, p1): acc += a[k:k+2]·row pairs, lane
// by lane in k order. X4 holds a[k], a[k+1].
#define PAIR(p0, p1, t1, t2, t3, acc) \
	MOVUPD   p0, t1; \
	MULPD    X4, t1; \
	MOVUPD   p1, t2; \
	MULPD    X4, t2; \
	MOVAPD   t1, t3; \
	UNPCKLPD t2, t1; \
	UNPCKHPD t2, t3; \
	ADDPD    t1, acc; \
	ADDPD    t3, acc

// The odd last k for columns (p0, p1). X4 holds a[K-1] in both lanes.
#define ODD(p0, p1, t1, acc) \
	MOVSD  p0, t1; \
	MOVHPD p1, t1; \
	MULPD  X4, t1; \
	ADDPD  t1, acc

// out[off:off+2] = out[off:off+2] + acc.
#define ADDSTORE(off, acc, t) \
	MOVUPD off(DI), t; \
	ADDPD  acc, t;     \
	MOVUPD t, off(DI)

// func mulTransBRowAsm(out, a *float64, k int, b *float64, n int, acc bool)
TEXT ·mulTransBRowAsm(SB), NOSPLIT, $0-41
	MOVQ    out+0(FP), DI
	MOVQ    a+8(FP), R8
	MOVQ    k+16(FP), CX
	MOVQ    b+24(FP), BX
	MOVQ    n+32(FP), DX
	MOVBQZX acc+40(FP), R10
	MOVQ    CX, R11
	SHLQ    $3, R11            // S: one b row in bytes
	LEAQ    (R11)(R11*2), R12  // 3S
	MOVQ    CX, R9
	ANDQ    $-2, R9
	LEAQ    (R8)(R9*8), R9     // end of a's k pairs

tile8:
	CMPQ DX, $8
	JLT  tile2

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  BX, SI
	LEAQ  (BX)(R11*4), R13
	MOVQ  R8, AX
	CMPQ  AX, R9
	JAE   odd8

loop8:
	MOVUPD (AX), X4
	PAIR((SI), (SI)(R11*1), X5, X6, X7, X0)
	PAIR((SI)(R11*2), (SI)(R12*1), X8, X9, X10, X1)
	PAIR((R13), (R13)(R11*1), X11, X12, X13, X2)
	PAIR((R13)(R11*2), (R13)(R12*1), X14, X15, X5, X3)
	ADDQ   $16, AX
	ADDQ   $16, SI
	ADDQ   $16, R13
	CMPQ   AX, R9
	JB     loop8

odd8:
	TESTQ    $1, CX
	JZ       store8
	MOVSD    (AX), X4
	UNPCKLPD X4, X4
	ODD((SI), (SI)(R11*1), X5, X0)
	ODD((SI)(R11*2), (SI)(R12*1), X6, X1)
	ODD((R13), (R13)(R11*1), X7, X2)
	ODD((R13)(R11*2), (R13)(R12*1), X8, X3)

store8:
	TESTQ R10, R10
	JZ    plain8
	ADDSTORE(0, X0, X5)
	ADDSTORE(16, X1, X6)
	ADDSTORE(32, X2, X7)
	ADDSTORE(48, X3, X8)
	JMP   next8

plain8:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)

next8:
	ADDQ $64, DI
	LEAQ (BX)(R11*8), BX
	SUBQ $8, DX
	JMP  tile8

tile2:
	CMPQ DX, $2
	JLT  tile1

	XORPS X0, X0
	MOVQ  BX, SI
	MOVQ  R8, AX
	CMPQ  AX, R9
	JAE   odd2

loop2:
	MOVUPD (AX), X4
	PAIR((SI), (SI)(R11*1), X5, X6, X7, X0)
	ADDQ   $16, AX
	ADDQ   $16, SI
	CMPQ   AX, R9
	JB     loop2

odd2:
	TESTQ    $1, CX
	JZ       store2
	MOVSD    (AX), X4
	UNPCKLPD X4, X4
	ODD((SI), (SI)(R11*1), X5, X0)

store2:
	TESTQ R10, R10
	JZ    plain2
	ADDSTORE(0, X0, X5)
	JMP   next2

plain2:
	MOVUPD X0, 0(DI)

next2:
	ADDQ $16, DI
	LEAQ (BX)(R11*2), BX
	SUBQ $2, DX
	JMP  tile2

tile1:
	CMPQ DX, $1
	JLT  done1

	XORPS X0, X0
	MOVQ  BX, SI
	MOVQ  R8, AX
	LEAQ  (R8)(CX*8), R9 // end of a

loop1:
	MOVSD (SI), X5
	MULSD (AX), X5
	ADDSD X5, X0
	ADDQ  $8, AX
	ADDQ  $8, SI
	CMPQ  AX, R9
	JB    loop1

	TESTQ R10, R10
	JZ    plain1
	MOVSD 0(DI), X5
	ADDSD X0, X5
	MOVSD X5, 0(DI)
	RET

plain1:
	MOVSD X0, 0(DI)

done1:
	RET
