// SSE2 two-wide bodies of the coordinate folds' tile kernel (fold.go).
//
// Bit-exactness contract (same discipline as step_amd64.s and
// gemm_amd64.s): every lane is one coordinate and no lane reads another.
// foldLoadAsm applies the gather law with two IEEE operations per value —
// v + (+0), which is v for every v except -0, where it is +0; then
// MINPD(v, +Inf), which is v for every ordered v and, because MINPD returns
// its second (source) operand whenever an operand is NaN, +Inf for NaN.
// foldCmpExAsm then only ever sees ordered values with a single zero, on
// which MINPD/MAXPD return one of their two operands unchanged, and two
// operands that compare equal have equal bits — so a comparator permutes
// each coordinate's pair exactly as Go's min/max do. No AVX, no CPUID test:
// one body on amd64; the Go twins loadRowGo and cmpExRowsGo (fold.go) run
// everywhere else, and TestFoldRowsMatchGo holds these bodies to them.

//go:build amd64

#include "textflag.h"

// func foldLoadAsm(dst, src *float64, n int)
TEXT ·foldLoadAsm(SB), NOSPLIT, $0-24
	MOVQ     dst+0(FP), DI
	MOVQ     src+8(FP), SI
	MOVQ     n+16(FP), CX
	XORPS    X14, X14                // +0 in both lanes
	MOVQ     $0x7FF0000000000000, AX
	MOVQ     AX, X15
	UNPCKLPD X15, X15                // +Inf in both lanes

loadoct:
	CMPQ CX, $8
	JLT  loadpair

	MOVUPD 0(SI), X0
	MOVUPD 16(SI), X1
	MOVUPD 32(SI), X2
	MOVUPD 48(SI), X3
	ADDPD  X14, X0
	ADDPD  X14, X1
	ADDPD  X14, X2
	ADDPD  X14, X3
	MINPD  X15, X0
	MINPD  X15, X1
	MINPD  X15, X2
	MINPD  X15, X3
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)

	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  loadoct

loadpair:
	CMPQ CX, $2
	JLT  loadtail

	MOVUPD (SI), X0
	ADDPD  X14, X0
	MINPD  X15, X0
	MOVUPD X0, (DI)

	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $2, CX
	JMP  loadpair

loadtail:
	CMPQ CX, $1
	JLT  loaddone

	MOVSD (SI), X0
	ADDSD X14, X0
	MINSD X15, X0
	MOVSD X0, (DI)

loaddone:
	RET

// func foldCmpExAsm(lo, hi *float64, n int)
TEXT ·foldCmpExAsm(SB), NOSPLIT, $0-24
	MOVQ lo+0(FP), SI
	MOVQ hi+8(FP), DI
	MOVQ n+16(FP), CX

cmpoct:
	CMPQ CX, $8
	JLT  cmppair

	MOVUPD 0(SI), X0
	MOVUPD 16(SI), X1
	MOVUPD 32(SI), X2
	MOVUPD 48(SI), X3
	MOVUPD 0(DI), X4
	MOVUPD 16(DI), X5
	MOVUPD 32(DI), X6
	MOVUPD 48(DI), X7
	MOVAPD X0, X8
	MOVAPD X1, X9
	MOVAPD X2, X10
	MOVAPD X3, X11
	MINPD  X4, X0
	MINPD  X5, X1
	MINPD  X6, X2
	MINPD  X7, X3
	MAXPD  X4, X8
	MAXPD  X5, X9
	MAXPD  X6, X10
	MAXPD  X7, X11
	MOVUPD X0, 0(SI)
	MOVUPD X1, 16(SI)
	MOVUPD X2, 32(SI)
	MOVUPD X3, 48(SI)
	MOVUPD X8, 0(DI)
	MOVUPD X9, 16(DI)
	MOVUPD X10, 32(DI)
	MOVUPD X11, 48(DI)

	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  cmpoct

cmppair:
	CMPQ CX, $2
	JLT  cmptail

	MOVUPD (SI), X0
	MOVUPD (DI), X4
	MOVAPD X0, X8
	MINPD  X4, X0
	MAXPD  X4, X8
	MOVUPD X0, (SI)
	MOVUPD X8, (DI)

	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $2, CX
	JMP  cmppair

cmptail:
	CMPQ CX, $1
	JLT  cmpdone

	MOVSD  (SI), X0
	MOVSD  (DI), X4
	MOVAPD X0, X8
	MINSD  X4, X0
	MAXSD  X4, X8
	MOVSD  X0, (SI)
	MOVSD  X8, (DI)

cmpdone:
	RET
