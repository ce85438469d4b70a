#include "textflag.h"

// func mmchainDots4x4AVX2(x *float64, d int, v *float64, k int, s *[16]float64)
//
// SI, DI, R8, R10: rows 0-3 of x; R9: d; BX: row j of v[,c:c+4]; CX: v's
// row stride in bytes; AX: j. Y0-Y3 hold the dots of rows 0-3, a row's
// four right-hand sides per vector.
TEXT ·mmchainDots4x4AVX2(SB), NOSPLIT, $0-40
	MOVQ   x+0(FP), SI
	MOVQ   d+8(FP), R9
	LEAQ   (SI)(R9*8), DI
	LEAQ   (DI)(R9*8), R8
	LEAQ   (R8)(R9*8), R10
	MOVQ   v+16(FP), BX
	MOVQ   k+24(FP), CX
	SHLQ   $3, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX

dots:
	CMPQ         AX, R9
	JGE          store
	VMOVUPD      (BX), Y4
	VBROADCASTSD (SI)(AX*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (DI)(AX*8), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (R8)(AX*8), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (R10)(AX*8), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         CX, BX
	INCQ         AX
	JMP          dots

store:
	MOVQ    s+32(FP), DX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET
