#include "textflag.h"

// func tmmRows4AVX2(a *float64, astride int, b *float64, bstride, bstep int, o *float64, ostep, d, dstep, cnt int)
//
// SI: a_0 of output row i, R8: astride in bytes (a_q is at SI + q*R8);
// AX, BX, CX, DX: b_0..b_3 of row i; DI: o_i; R9: its cells; R10: j; R11:
// scratch; R12, R13: the pass pointers of the zero-skip path, and R13 a_2's
// address on the fast path; n-8(SP): output rows left. Y12-Y15 hold a_0..a_3.
TEXT ·tmmRows4AVX2(SB), NOSPLIT, $8-80
	MOVQ  cnt+72(FP), R11
	TESTQ R11, R11
	JLE   done
	MOVQ  R11, n-8(SP)
	MOVQ  a+0(FP), SI
	MOVQ  astride+8(FP), R8
	SHLQ  $3, R8
	MOVQ  bstride+24(FP), R11
	SHLQ  $3, R11
	MOVQ  b+16(FP), AX
	LEAQ  (AX)(R11*1), BX
	LEAQ  (AX)(R11*2), CX
	LEAQ  (BX)(R11*2), DX
	MOVQ  o+40(FP), DI
	MOVQ  d+56(FP), R9

row:
	// All four a_q nonzero: one pass, o + a_0*b_0 + a_1*b_1 + a_2*b_2 + a_3*b_3
	// per cell. A zero a_q (+0 or -0; the doubled bits are zero) takes the
	// pass-per-row path.
	LEAQ         (SI)(R8*2), R13
	MOVQ         (SI), R11
	ADDQ         R11, R11
	JZ           slow
	MOVQ         (SI)(R8*1), R11
	ADDQ         R11, R11
	JZ           slow
	MOVQ         (R13), R11
	ADDQ         R11, R11
	JZ           slow
	MOVQ         (R13)(R8*1), R11
	ADDQ         R11, R11
	JZ           slow
	VBROADCASTSD (SI), Y12
	VBROADCASTSD (SI)(R8*1), Y13
	VBROADCASTSD (R13), Y14
	VBROADCASTSD (R13)(R8*1), Y15
	XORQ         R10, R10

fast4:
	LEAQ    4(R10), R11
	CMPQ    R11, R9
	JGT     fast1
	VMOVUPD (DI)(R10*8), Y0
	VMULPD  (AX)(R10*8), Y12, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (BX)(R10*8), Y13, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (CX)(R10*8), Y14, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (DX)(R10*8), Y15, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(R10*8)
	MOVQ    R11, R10
	JMP     fast4

fast1:
	CMPQ   R10, R9
	JGE    next
	VMOVSD (DI)(R10*8), X0
	VMULSD (AX)(R10*8), X12, X1
	VADDSD X1, X0, X0
	VMULSD (BX)(R10*8), X13, X1
	VADDSD X1, X0, X0
	VMULSD (CX)(R10*8), X14, X1
	VADDSD X1, X0, X0
	VMULSD (DX)(R10*8), X15, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (DI)(R10*8)
	INCQ   R10
	JMP    fast1

slow:
	// One pass per row q, o += a_q*b_q per cell, skipped when a_q is zero.
	MOVQ SI, R13
	MOVQ AX, R12

pass:
	MOVQ         (R13), R11
	ADDQ         R11, R11
	JZ           passnext
	VBROADCASTSD (R13), Y12
	XORQ         R10, R10

pass4:
	LEAQ    4(R10), R11
	CMPQ    R11, R9
	JGT     pass1
	VMOVUPD (DI)(R10*8), Y0
	VMULPD  (R12)(R10*8), Y12, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(R10*8)
	MOVQ    R11, R10
	JMP     pass4

pass1:
	CMPQ   R10, R9
	JGE    passnext
	VMOVSD (DI)(R10*8), X0
	VMULSD (R12)(R10*8), X12, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (DI)(R10*8)
	INCQ   R10
	JMP    pass1

passnext:
	MOVQ bstride+24(FP), R11
	LEAQ (R12)(R11*8), R12
	ADDQ R8, R13
	LEAQ (SI)(R8*4), R11
	CMPQ R13, R11
	JNE  pass

next:
	ADDQ $8, SI
	MOVQ bstep+32(FP), R11
	SHLQ $3, R11
	ADDQ R11, AX
	ADDQ R11, BX
	ADDQ R11, CX
	ADDQ R11, DX
	MOVQ ostep+48(FP), R11
	LEAQ (DI)(R11*8), DI
	SUBQ dstep+64(FP), R9
	DECQ n-8(SP)
	JNZ  row

done:
	VZEROUPPER
	RET
