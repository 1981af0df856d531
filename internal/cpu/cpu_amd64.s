#include "textflag.h"

// func hasAVX() bool
//
// CPUID.1:ECX must report AVX (bit 28) and OSXSAVE (bit 27), and XCR0 must
// show the OS saving both the XMM (bit 1) and the YMM (bit 2) state.
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $1
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
