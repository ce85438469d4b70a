#include "textflag.h"

// ·laneMasks+32*(c-1) masks the first c of four lanes; the aggregate
// kernels of agg_amd64.s share it.
DATA ·laneMasks+0(SB)/8, $-1
DATA ·laneMasks+8(SB)/8, $0
DATA ·laneMasks+16(SB)/8, $0
DATA ·laneMasks+24(SB)/8, $0
DATA ·laneMasks+32(SB)/8, $-1
DATA ·laneMasks+40(SB)/8, $-1
DATA ·laneMasks+48(SB)/8, $0
DATA ·laneMasks+56(SB)/8, $0
DATA ·laneMasks+64(SB)/8, $-1
DATA ·laneMasks+72(SB)/8, $-1
DATA ·laneMasks+80(SB)/8, $-1
DATA ·laneMasks+88(SB)/8, $0
DATA ·laneMasks+96(SB)/8, $-1
DATA ·laneMasks+104(SB)/8, $-1
DATA ·laneMasks+112(SB)/8, $-1
DATA ·laneMasks+120(SB)/8, $-1
GLOBL ·laneMasks(SB), RODATA|NOPTR, $128

// func matMulPairAVX2(a0, a1, b, o0, o1 *float64, k, p int)
//
// SI, DI: rows a0, a1; DX: b; R8, R9: o0, o1; CX: k; R10: b's row stride in
// bytes; R11: byte offset of the tile's first column; BX: the tile's cells
// of b's row kk; R12: kk. Y0-Y3 hold the 2 x 8 tile, Y4-Y5 a row of b.
TEXT ·matMulPairAVX2(SB), NOSPLIT, $0-56
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ b+16(FP), DX
	MOVQ o0+24(FP), R8
	MOVQ o1+32(FP), R9
	MOVQ k+40(FP), CX
	MOVQ p+48(FP), R10
	SHLQ $3, R10
	XORQ R11, R11

tile8:
	LEAQ   64(R11), AX
	CMPQ   AX, R10
	JGT    tile4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (DX)(R11*1), BX
	XORQ   R12, R12

k8:
	CMPQ         R12, CX
	JGE          store8
	VMOVUPD      (BX), Y4
	VMOVUPD      32(BX), Y5
	MOVQ         (SI)(R12*8), R13
	ADDQ         R13, R13         // zero for +0 and -0 alone
	JZ           k8row1
	VBROADCASTSD (SI)(R12*8), Y6
	VMULPD       Y4, Y6, Y7
	VADDPD       Y7, Y0, Y0
	VMULPD       Y5, Y6, Y7
	VADDPD       Y7, Y1, Y1

k8row1:
	MOVQ         (DI)(R12*8), R13
	ADDQ         R13, R13
	JZ           k8next
	VBROADCASTSD (DI)(R12*8), Y6
	VMULPD       Y4, Y6, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       Y5, Y6, Y7
	VADDPD       Y7, Y3, Y3

k8next:
	ADDQ R10, BX
	INCQ R12
	JMP  k8

store8:
	VMOVUPD Y0, (R8)(R11*1)
	VMOVUPD Y1, 32(R8)(R11*1)
	VMOVUPD Y2, (R9)(R11*1)
	VMOVUPD Y3, 32(R9)(R11*1)
	MOVQ    AX, R11
	JMP     tile8

tile4:
	// Four columns, or the last one to three under a mask: Y9's lane l is
	// all ones when column j+l exists. A masked-off lane loads nothing and
	// is never stored.
	MOVQ    R10, AX
	SUBQ    R11, AX
	JLE     done
	SHRQ    $3, AX
	CMPQ    AX, $4
	JLT     masked
	MOVQ    $4, AX

masked:
	SHLQ    $5, AX
	LEAQ    ·laneMasks(SB), R13
	VMOVDQU -32(R13)(AX*1), Y9
	VXORPD  Y0, Y0, Y0
	VXORPD  Y2, Y2, Y2
	LEAQ    (DX)(R11*1), BX
	XORQ    R12, R12

k4:
	CMPQ         R12, CX
	JGE          store4
	VMASKMOVPD   (BX), Y9, Y4
	MOVQ         (SI)(R12*8), R13
	ADDQ         R13, R13
	JZ           k4row1
	VBROADCASTSD (SI)(R12*8), Y6
	VMULPD       Y4, Y6, Y7
	VADDPD       Y7, Y0, Y0

k4row1:
	MOVQ         (DI)(R12*8), R13
	ADDQ         R13, R13
	JZ           k4next
	VBROADCASTSD (DI)(R12*8), Y6
	VMULPD       Y4, Y6, Y7
	VADDPD       Y7, Y2, Y2

k4next:
	ADDQ R10, BX
	INCQ R12
	JMP  k4

store4:
	VMASKMOVPD Y0, Y9, (R8)(R11*1)
	VMASKMOVPD Y2, Y9, (R9)(R11*1)
	ADDQ       $32, R11
	JMP        tile4

done:
	VZEROUPPER
	RET
