#include "textflag.h"

DATA posInf<>+0(SB)/8, $0x7ff0000000000000
GLOBL posInf<>(SB), RODATA|NOPTR, $8

// func rollingProfileAVX(q, t, prefixSq, out []float64, qq float64) float64
//
// Blocks of 16 consecutive windows j, four per YMM accumulator.  Lane j sums
// q[l]·t[j+l] for l = 0, 1, …, m−1 with VMULPD then VADDPD from +0, so it
// performs the Go loop's operations in the Go loop's order.  Then
//
//	ŝ_j = max(0, (max(0, prefixSq[j+m] − prefixSq[j]) − (dot+dot)) + qq)
//
// where max(0, x) is VMAXPD with 0 as its first source: like the Go clamp
// `if x < 0 { x = 0 }` it keeps −0.  ŝ_j is stored to out[j] and folded
// into a running minimum.  The last block starts at len(out)−16, overlapping
// the one before it, so len(out) must be at least 16; len(q) must be at
// least 1.  t must hold len(out)+len(q)−1 values and prefixSq one more.
TEXT ·rollingProfileAVX(SB), NOSPLIT, $0-112
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), R8
	MOVQ t_base+24(FP), DI
	MOVQ prefixSq_base+48(FP), R9
	MOVQ out_base+72(FP), R10
	MOVQ out_len+80(FP), R12
	SUBQ $16, R12                // start of the last block
	VBROADCASTSD qq+96(FP), Y12
	VXORPD Y13, Y13, Y13         // 0
	VBROADCASTSD posInf<>(SB), Y14 // running minimum
	XORQ BX, BX                  // j: first window of the block

block:
	LEAQ (DI)(BX*8), AX          // &t[j]
	MOVQ SI, DX                  // &q[0]
	MOVQ R8, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

tap:
	VBROADCASTSD (DX), Y4
	VMULPD (AX), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(AX), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(AX), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(AX), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $8, AX
	ADDQ $8, DX
	DECQ CX
	JNZ  tap

	LEAQ (R9)(BX*8), AX          // &prefixSq[j]
	LEAQ (AX)(R8*8), DX          // &prefixSq[j+m]
	LEAQ (R10)(BX*8), CX         // &out[j]

#define PROFILE(acc, off) \
	VMOVUPD off(DX), Y4; \
	VSUBPD  off(AX), Y4, Y4; \
	VMAXPD  Y4, Y13, Y4; \
	VADDPD  acc, acc, Y5; \
	VSUBPD  Y5, Y4, Y4; \
	VADDPD  Y12, Y4, Y4; \
	VMAXPD  Y4, Y13, Y4; \
	VMOVUPD Y4, off(CX); \
	VMINPD  Y14, Y4, Y14

	PROFILE(Y0, 0)
	PROFILE(Y1, 32)
	PROFILE(Y2, 64)
	PROFILE(Y3, 96)

	CMPQ BX, R12
	JGE  done
	ADDQ $16, BX
	CMPQ BX, R12
	JLE  block
	MOVQ R12, BX                 // short tail: overlap the block before
	JMP  block

done:
	VEXTRACTF128 $1, Y14, X0
	VMINPD       X0, X14, X0
	VUNPCKHPD    X0, X0, X1
	VMINSD       X1, X0, X0
	VZEROUPPER
	MOVSD X0, ret+104(FP)
	RET
