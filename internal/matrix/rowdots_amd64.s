#include "textflag.h"

// func rowDotsAVX2(m *float64, k int, v *float64, out *float64, n8 int, skip bool)
//
// SI, DI, R8, R9: rows 0-3 of the group, R10-R13: rows 4-7; CX: k; DX: v;
// AX: kk; BX: scratch. Y0 holds the dots of rows 0-3, Y1 of rows 4-7, a
// row per lane. A column of four rows is built from two 2-cell loads per
// row pair: [r0 | r2] and [r1 | r3] unpack to the rows' cells of kk and of
// kk+1. Y10 is +0, Y11 -0, and Y12 all ones when skip is false, so the
// zero test of each lane passes. Locals: the group's first row, the rows
// left and the group's out.
TEXT ·rowDotsAVX2(SB), NOSPLIT, $24-41
	MOVQ         m+0(FP), AX
	MOVQ         AX, base-8(SP)
	MOVQ         n8+32(FP), AX
	MOVQ         AX, left-16(SP)
	MOVQ         k+8(FP), CX
	MOVQ         v+16(FP), DX
	MOVQ         out+24(FP), AX
	MOVQ         AX, out-24(SP)
	MOVQ         $0x8000000000000000, AX
	MOVQ         AX, X11
	VBROADCASTSD X11, Y11
	VXORPD       Y10, Y10, Y10
	VPCMPEQQ     Y12, Y12, Y12
	MOVBLZX      skip+40(FP), AX
	TESTQ        AX, AX
	JZ           group
	VXORPD       Y12, Y12, Y12

group:
	SUBQ $8, left-16(SP)
	JLT  done
	MOVQ base-8(SP), SI
	LEAQ (SI)(CX*8), DI
	LEAQ (DI)(CX*8), R8
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	LEAQ (R11)(CX*8), R12
	LEAQ (R12)(CX*8), R13
	LEAQ (R13)(CX*8), AX
	MOVQ AX, base-8(SP)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX

// TERM adds the four rows' terms of one column: col*v where the row's
// cell is nonzero or skip is false, -0 (which leaves every value as it
// is) otherwise.
#define TERM(col, vv, acc) \
	VMULPD    vv, col, Y8;      \
	VCMPPD    $4, Y10, col, Y9; \
	VORPD     Y12, Y9, Y9;      \
	VBLENDVPD Y9, Y8, Y11, Y8;  \
	VADDPD    Y8, acc, acc

pairs:
	LEAQ         2(AX), BX
	CMPQ         BX, CX
	JGT          single
	VBROADCASTSD (DX)(AX*8), Y6
	VBROADCASTSD 8(DX)(AX*8), Y7
	VMOVUPD      (SI)(AX*8), X2
	VINSERTF128  $1, (R8)(AX*8), Y2, Y2
	VMOVUPD      (DI)(AX*8), X3
	VINSERTF128  $1, (R9)(AX*8), Y3, Y3
	VUNPCKLPD    Y3, Y2, Y4
	VUNPCKHPD    Y3, Y2, Y5
	TERM(Y4, Y6, Y0)
	TERM(Y5, Y7, Y0)
	VMOVUPD      (R10)(AX*8), X2
	VINSERTF128  $1, (R12)(AX*8), Y2, Y2
	VMOVUPD      (R11)(AX*8), X3
	VINSERTF128  $1, (R13)(AX*8), Y3, Y3
	VUNPCKLPD    Y3, Y2, Y4
	VUNPCKHPD    Y3, Y2, Y5
	TERM(Y4, Y6, Y1)
	TERM(Y5, Y7, Y1)
	MOVQ         BX, AX
	JMP          pairs

single:
	// The last column of an odd k, one cell per row.
	CMPQ         AX, CX
	JGE          store
	VBROADCASTSD (DX)(AX*8), Y6
	VMOVSD       (SI)(AX*8), X2
	VMOVSD       (R8)(AX*8), X4
	VINSERTF128  $1, X4, Y2, Y2
	VMOVSD       (DI)(AX*8), X3
	VMOVSD       (R9)(AX*8), X5
	VINSERTF128  $1, X5, Y3, Y3
	VUNPCKLPD    Y3, Y2, Y4
	TERM(Y4, Y6, Y0)
	VMOVSD       (R10)(AX*8), X2
	VMOVSD       (R12)(AX*8), X4
	VINSERTF128  $1, X4, Y2, Y2
	VMOVSD       (R11)(AX*8), X3
	VMOVSD       (R13)(AX*8), X5
	VINSERTF128  $1, X5, Y3, Y3
	VUNPCKLPD    Y3, Y2, Y4
	TERM(Y4, Y6, Y1)

store:
	MOVQ    out-24(SP), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	ADDQ    $64, out-24(SP)
	JMP     group

done:
	VZEROUPPER
	RET
