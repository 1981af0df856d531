#include "textflag.h"

// func lockstepRowsAVX(t, means, stds, c []float64, valid []bool, d *[4]float64, w int, fw float64, k, i, stop int) (row, keep int)
//
// Lane l of Y0 is the dot of diagonal k+l at row i, column j = k+i+l.  A
// row first rolls each dot as rollDot does,
//
//	d + (t[i+w−1]·t[j+w−1] − t[i−1]·t[j−1])
//
// with VMULPD, VMULPD, VSUBPD, VADDPD (no FMA), except at row 0, whose dots
// are the seeds.  A row with valid[i] false is skipped.  Otherwise it forms
// ts.CorrTerms in its order, num = d − (fw·mᵢ)·mⱼ and den = (fw·sᵢ)·sⱼ, and
// rules a lane out when num < den·cᵢ and num < den·cⱼ, with the ordered
// predicate LT_OQ, false on NaN as Go's < is.  A lane is kept when it is not
// ruled out and valid[j] holds (every lane when valid is nil).  The walk
// stops at the first row that keeps a lane, or after row stop−1.
TEXT ·lockstepRowsAVX(SB), NOSPLIT, $0-184
	MOVQ t_base+0(FP), SI        // &t[0]
	MOVQ w+128(FP), AX
	LEAQ (SI)(AX*8), DI          // &t[w]
	MOVQ means_base+24(FP), R8
	MOVQ stds_base+48(FP), R9
	MOVQ c_base+72(FP), R10
	MOVQ valid_base+96(FP), R11  // nil: every window is valid
	MOVQ d+120(FP), DX
	MOVQ i+152(FP), BX           // i
	MOVQ k+144(FP), R12
	ADDQ BX, R12                 // j = k + i
	MOVQ stop+160(FP), CX
	VBROADCASTSD fw+136(FP), Y1
	VMOVUPD (DX), Y0
	TESTQ BX, BX
	JZ   test

row:
	VBROADCASTSD -8(DI)(BX*8), Y2 // t[i+w−1]
	VBROADCASTSD -8(SI)(BX*8), Y3 // t[i−1]
	VMULPD -8(DI)(R12*8), Y2, Y2  // t[i+w−1]·t[j+w−1]
	VMULPD -8(SI)(R12*8), Y3, Y3  // t[i−1]·t[j−1]
	VSUBPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0

test:
	MOVL $15, AX                 // lanes whose column window is valid
	TESTQ R11, R11
	JZ   terms
	MOVBLZX (R11)(BX*1), AX
	TESTL AX, AX
	JZ   next
	MOVL (R11)(R12*1), AX        // valid[j..j+3], one 0/1 byte per lane
	IMUL3L $0x01020408, AX, AX   // byte l's bit lands on bit 24+l
	SHRL $24, AX
	JZ   next

terms:
	VBROADCASTSD (R8)(BX*8), Y4  // mᵢ
	VMULPD Y4, Y1, Y4            // fw·mᵢ
	VMULPD (R8)(R12*8), Y4, Y4   // (fw·mᵢ)·mⱼ
	VSUBPD Y4, Y0, Y4            // num
	VBROADCASTSD (R9)(BX*8), Y5  // sᵢ
	VMULPD Y5, Y1, Y5            // fw·sᵢ
	VMULPD (R9)(R12*8), Y5, Y5   // den
	VBROADCASTSD (R10)(BX*8), Y6 // cᵢ
	VMULPD Y6, Y5, Y6            // den·cᵢ
	VMULPD (R10)(R12*8), Y5, Y7  // den·cⱼ
	VCMPPD $0x11, Y6, Y4, Y6     // num < den·cᵢ
	VCMPPD $0x11, Y7, Y4, Y7     // num < den·cⱼ
	VANDPD Y7, Y6, Y6            // ruled out
	VMOVMSKPD Y6, R13
	NOTL R13
	ANDL R13, AX
	JNZ  done

next:
	INCQ BX
	INCQ R12
	CMPQ BX, CX
	JLT  row
	DECQ BX                      // the walk reached stop: report row stop−1
	XORL AX, AX

done:
	VMOVUPD Y0, (DX)
	VZEROUPPER
	MOVQ BX, row+168(FP)
	MOVQ AX, keep+176(FP)
	RET
