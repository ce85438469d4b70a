#include "textflag.h"

// func tmatVecAVX2(o, m *float64, k int, y *float64, n4, cnt int)
//
// SI, R10, R11, R12: rows r..r+3 of m; R8: k in bytes; DX: y[r]; CX: rows
// left; DI: o; R9: cnt; AX: i. Y12-Y15 hold y[r..r+3], Y11 -0 in every
// lane and Y10 +0. Row q's term of a cell is m_q*y_q where m_q is nonzero
// (NaN included) and -0 where m_q is +0 or -0: adding -0 leaves every
// value as it is, so the cell takes exactly tmatVecBand's skipping sums.
TEXT ·tmatVecAVX2(SB), NOSPLIT, $0-48
	MOVQ         o+0(FP), DI
	MOVQ         m+8(FP), SI
	MOVQ         k+16(FP), R8
	SHLQ         $3, R8
	MOVQ         y+24(FP), DX
	MOVQ         n4+32(FP), CX
	MOVQ         cnt+40(FP), R9
	MOVQ         $0x8000000000000000, AX
	MOVQ         AX, X11
	VBROADCASTSD X11, Y11
	VXORPD       Y10, Y10, Y10

group:
	SUBQ         $4, CX
	JLT          done
	LEAQ         (SI)(R8*1), R10
	LEAQ         (SI)(R8*2), R11
	LEAQ         (R11)(R8*1), R12
	VBROADCASTSD (DX), Y12
	VBROADCASTSD 8(DX), Y13
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15
	XORQ         AX, AX

cells4:
	LEAQ      4(AX), BX
	CMPQ      BX, R9
	JGT       cells1
	VMOVUPD   (DI)(AX*8), Y0
	VMOVUPD   (SI)(AX*8), Y1
	VCMPPD    $4, Y10, Y1, Y2         // NEQ_UQ: true for NaN
	VMULPD    Y12, Y1, Y1
	VBLENDVPD Y2, Y1, Y11, Y1
	VADDPD    Y1, Y0, Y0
	VMOVUPD   (R10)(AX*8), Y3
	VCMPPD    $4, Y10, Y3, Y4
	VMULPD    Y13, Y3, Y3
	VBLENDVPD Y4, Y3, Y11, Y3
	VADDPD    Y3, Y0, Y0
	VMOVUPD   (R11)(AX*8), Y5
	VCMPPD    $4, Y10, Y5, Y6
	VMULPD    Y14, Y5, Y5
	VBLENDVPD Y6, Y5, Y11, Y5
	VADDPD    Y5, Y0, Y0
	VMOVUPD   (R12)(AX*8), Y7
	VCMPPD    $4, Y10, Y7, Y8
	VMULPD    Y15, Y7, Y7
	VBLENDVPD Y8, Y7, Y11, Y7
	VADDPD    Y7, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	MOVQ      BX, AX
	JMP       cells4

cells1:
	CMPQ      AX, R9
	JGE       next
	VMOVSD    (DI)(AX*8), X0
	VMOVSD    (SI)(AX*8), X1
	VCMPSD    $4, X10, X1, X2
	VMULSD    X12, X1, X1
	VBLENDVPD X2, X1, X11, X1
	VADDSD    X1, X0, X0
	VMOVSD    (R10)(AX*8), X3
	VCMPSD    $4, X10, X3, X4
	VMULSD    X13, X3, X3
	VBLENDVPD X4, X3, X11, X3
	VADDSD    X3, X0, X0
	VMOVSD    (R11)(AX*8), X5
	VCMPSD    $4, X10, X5, X6
	VMULSD    X14, X5, X5
	VBLENDVPD X6, X5, X11, X5
	VADDSD    X5, X0, X0
	VMOVSD    (R12)(AX*8), X7
	VCMPSD    $4, X10, X7, X8
	VMULSD    X15, X7, X7
	VBLENDVPD X8, X7, X11, X7
	VADDSD    X7, X0, X0
	VMOVSD    X0, (DI)(AX*8)
	INCQ      AX
	JMP       cells1

next:
	LEAQ (SI)(R8*4), SI
	ADDQ $32, DX
	JMP  group

done:
	VZEROUPPER
	RET
