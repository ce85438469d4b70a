#include "textflag.h"

// The aggregate kernels. The column kernels give each column one lane and
// take four rows per sweep, so every column keeps its row-ascending order;
// the last one to three columns go under a lane mask. A minimum is
// VMINPD(v, lo) and a maximum VMAXPD(v, hi): each returns v where v < lo
// (v > hi) and lo (hi) otherwise, so it is exactly the Go kernels'
// "if v < lo { lo = v }", which skips NaN and keeps the first of -0 and +0.

// COL_SETUP turns R8 from c into c's bytes, sets R9 to the bytes of c's
// whole vectors and, when c%4 is not zero, Y15 to the mask of its lanes.
#define COL_SETUP(done) \
	MOVQ    R8, BX                  \
	ANDQ    $3, BX                  \
	SHLQ    $3, R8                  \
	MOVQ    R8, R9                  \
	ANDQ    $-32, R9                \
	SHLQ    $5, BX                  \
	JZ      done                    \
	LEAQ    ·laneMasks(SB), R10     \
	VMOVDQU -32(R10)(BX*1), Y15

// func colSumsAVX2(d *float64, c, n int, sum *float64)
//
// SI, R11, R12, R13: rows r..r+3 of d; R8: c in bytes; R9: bytes of c's
// whole vectors; CX: rows left; DI: sum; AX: byte offset of the columns at
// hand. Y15 masks the last one to three columns.
TEXT ·colSumsAVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), SI
	MOVQ c+8(FP), R8
	MOVQ n+16(FP), CX
	MOVQ sum+24(FP), DI
	COL_SETUP(sumSweep)

sumSweep:
	SUBQ $4, CX
	JLT  sumDone
	LEAQ (SI)(R8*1), R11
	LEAQ (SI)(R8*2), R12
	LEAQ (R11)(R8*2), R13
	XORQ AX, AX

sumVec:
	CMPQ    AX, R9
	JGE     sumTail
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VADDPD  (R11)(AX*1), Y0, Y0
	VADDPD  (R12)(AX*1), Y0, Y0
	VADDPD  (R13)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     sumVec

sumTail:
	CMPQ       AX, R8
	JGE        sumNext
	VMASKMOVPD (DI)(AX*1), Y15, Y0
	VMASKMOVPD (SI)(AX*1), Y15, Y2
	VADDPD     Y2, Y0, Y0
	VMASKMOVPD (R11)(AX*1), Y15, Y4
	VADDPD     Y4, Y0, Y0
	VMASKMOVPD (R12)(AX*1), Y15, Y6
	VADDPD     Y6, Y0, Y0
	VMASKMOVPD (R13)(AX*1), Y15, Y8
	VADDPD     Y8, Y0, Y0
	VMASKMOVPD Y0, Y15, (DI)(AX*1)

sumNext:
	LEAQ (SI)(R8*4), SI
	JMP  sumSweep

sumDone:
	VZEROUPPER
	RET

// func colMomentsAVX2(d *float64, c, n int, sum, sq *float64)
//
// SI, R11, R12, R13: rows r..r+3 of d; R8: c in bytes; R9: bytes of c's
// whole vectors; CX: rows left; DI: sum; DX: sq; AX: byte offset of the
// columns at hand. Y15 masks the last one to three columns.
TEXT ·colMomentsAVX2(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), SI
	MOVQ c+8(FP), R8
	MOVQ n+16(FP), CX
	MOVQ sum+24(FP), DI
	MOVQ sq+32(FP), DX
	COL_SETUP(momSweep)

momSweep:
	SUBQ $4, CX
	JLT  momDone
	LEAQ (SI)(R8*1), R11
	LEAQ (SI)(R8*2), R12
	LEAQ (R11)(R8*2), R13
	XORQ AX, AX

momVec:
	CMPQ    AX, R9
	JGE     momTail
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD (DX)(AX*1), Y1
	VMOVUPD (SI)(AX*1), Y2
	VMULPD  Y2, Y2, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMOVUPD (R11)(AX*1), Y4
	VMULPD  Y4, Y4, Y5
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VMOVUPD (R12)(AX*1), Y6
	VMULPD  Y6, Y6, Y7
	VADDPD  Y6, Y0, Y0
	VADDPD  Y7, Y1, Y1
	VMOVUPD (R13)(AX*1), Y8
	VMULPD  Y8, Y8, Y9
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, (DX)(AX*1)
	ADDQ    $32, AX
	JMP     momVec

momTail:
	CMPQ       AX, R8
	JGE        momNext
	VMASKMOVPD (DI)(AX*1), Y15, Y0
	VMASKMOVPD (DX)(AX*1), Y15, Y1
	VMASKMOVPD (SI)(AX*1), Y15, Y2
	VMULPD     Y2, Y2, Y3
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y1, Y1
	VMASKMOVPD (R11)(AX*1), Y15, Y4
	VMULPD     Y4, Y4, Y5
	VADDPD     Y4, Y0, Y0
	VADDPD     Y5, Y1, Y1
	VMASKMOVPD (R12)(AX*1), Y15, Y6
	VMULPD     Y6, Y6, Y7
	VADDPD     Y6, Y0, Y0
	VADDPD     Y7, Y1, Y1
	VMASKMOVPD (R13)(AX*1), Y15, Y8
	VMULPD     Y8, Y8, Y9
	VADDPD     Y8, Y0, Y0
	VADDPD     Y9, Y1, Y1
	VMASKMOVPD Y0, Y15, (DI)(AX*1)
	VMASKMOVPD Y1, Y15, (DX)(AX*1)

momNext:
	LEAQ (SI)(R8*4), SI
	JMP  momSweep

momDone:
	VZEROUPPER
	RET

// func colMinsAVX2(d *float64, c, n int, mn *float64)
//
// Registers as in colMomentsAVX2, with DI: mn.
TEXT ·colMinsAVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), SI
	MOVQ c+8(FP), R8
	MOVQ n+16(FP), CX
	MOVQ mn+24(FP), DI
	COL_SETUP(minSweep)

minSweep:
	SUBQ $4, CX
	JLT  minDone
	LEAQ (SI)(R8*1), R11
	LEAQ (SI)(R8*2), R12
	LEAQ (R11)(R8*2), R13
	XORQ AX, AX

minVec:
	CMPQ    AX, R9
	JGE     minTail
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD (SI)(AX*1), Y2
	VMINPD  Y0, Y2, Y0
	VMOVUPD (R11)(AX*1), Y4
	VMINPD  Y0, Y4, Y0
	VMOVUPD (R12)(AX*1), Y6
	VMINPD  Y0, Y6, Y0
	VMOVUPD (R13)(AX*1), Y8
	VMINPD  Y0, Y8, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     minVec

minTail:
	CMPQ       AX, R8
	JGE        minNext
	VMASKMOVPD (DI)(AX*1), Y15, Y0
	VMASKMOVPD (SI)(AX*1), Y15, Y2
	VMINPD     Y0, Y2, Y0
	VMASKMOVPD (R11)(AX*1), Y15, Y4
	VMINPD     Y0, Y4, Y0
	VMASKMOVPD (R12)(AX*1), Y15, Y6
	VMINPD     Y0, Y6, Y0
	VMASKMOVPD (R13)(AX*1), Y15, Y8
	VMINPD     Y0, Y8, Y0
	VMASKMOVPD Y0, Y15, (DI)(AX*1)

minNext:
	LEAQ (SI)(R8*4), SI
	JMP  minSweep

minDone:
	VZEROUPPER
	RET

// func colMaxsAVX2(d *float64, c, n int, mx *float64)
//
// Registers as in colMomentsAVX2, with DI: mx.
TEXT ·colMaxsAVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), SI
	MOVQ c+8(FP), R8
	MOVQ n+16(FP), CX
	MOVQ mx+24(FP), DI
	COL_SETUP(maxSweep)

maxSweep:
	SUBQ $4, CX
	JLT  maxDone
	LEAQ (SI)(R8*1), R11
	LEAQ (SI)(R8*2), R12
	LEAQ (R11)(R8*2), R13
	XORQ AX, AX

maxVec:
	CMPQ    AX, R9
	JGE     maxTail
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD (SI)(AX*1), Y2
	VMAXPD  Y0, Y2, Y0
	VMOVUPD (R11)(AX*1), Y4
	VMAXPD  Y0, Y4, Y0
	VMOVUPD (R12)(AX*1), Y6
	VMAXPD  Y0, Y6, Y0
	VMOVUPD (R13)(AX*1), Y8
	VMAXPD  Y0, Y8, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     maxVec

maxTail:
	CMPQ       AX, R8
	JGE        maxNext
	VMASKMOVPD (DI)(AX*1), Y15, Y0
	VMASKMOVPD (SI)(AX*1), Y15, Y2
	VMAXPD     Y0, Y2, Y0
	VMASKMOVPD (R11)(AX*1), Y15, Y4
	VMAXPD     Y0, Y4, Y0
	VMASKMOVPD (R12)(AX*1), Y15, Y6
	VMAXPD     Y0, Y6, Y0
	VMASKMOVPD (R13)(AX*1), Y15, Y8
	VMAXPD     Y0, Y8, Y0
	VMASKMOVPD Y0, Y15, (DI)(AX*1)

maxNext:
	LEAQ (SI)(R8*4), SI
	JMP  maxSweep

maxDone:
	VZEROUPPER
	RET

// func minAVX2(d *float64, n int) float64
//
// The least of d[0:n], n a positive multiple of 16, over four vectors of
// lanes; the lanes merge by value, so of a -0 and +0 tie either may come
// back. SI: d; CX: cells left; Y0-Y3 the lanes' minima.
TEXT ·minAVX2(SB), NOSPLIT, $0-24
	MOVQ         d+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVQ         $0x7ff0000000000000, AX
	MOVQ         AX, X0
	VBROADCASTSD X0, Y0
	VMOVAPD      Y0, Y1
	VMOVAPD      Y0, Y2
	VMOVAPD      Y0, Y3

minLanes:
	VMOVUPD (SI), Y4
	VMINPD  Y0, Y4, Y0
	VMOVUPD 32(SI), Y5
	VMINPD  Y1, Y5, Y1
	VMOVUPD 64(SI), Y6
	VMINPD  Y2, Y6, Y2
	VMOVUPD 96(SI), Y7
	VMINPD  Y3, Y7, Y3
	ADDQ    $128, SI
	SUBQ    $16, CX
	JGT     minLanes
	VMINPD       Y1, Y0, Y0
	VMINPD       Y3, Y2, Y2
	VMINPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMINPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMINSD       X1, X0, X0
	VMOVSD       X0, ret+16(FP)
	VZEROUPPER
	RET

// func maxAVX2(d *float64, n int) float64
//
// The greatest of d[0:n], as minAVX2.
TEXT ·maxAVX2(SB), NOSPLIT, $0-24
	MOVQ         d+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVQ         $0xfff0000000000000, AX
	MOVQ         AX, X0
	VBROADCASTSD X0, Y0
	VMOVAPD      Y0, Y1
	VMOVAPD      Y0, Y2
	VMOVAPD      Y0, Y3

maxLanes:
	VMOVUPD (SI), Y4
	VMAXPD  Y0, Y4, Y0
	VMOVUPD 32(SI), Y5
	VMAXPD  Y1, Y5, Y1
	VMOVUPD 64(SI), Y6
	VMAXPD  Y2, Y6, Y2
	VMOVUPD 96(SI), Y7
	VMAXPD  Y3, Y7, Y3
	ADDQ    $128, SI
	SUBQ    $16, CX
	JGT     maxLanes
	VMAXPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VMAXPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	VMOVSD       X0, ret+16(FP)
	VZEROUPPER
	RET

// func sumAVX2(d *float64, n int) float64
//
// d[0] + d[1] + ... + d[n-1] from +0, one chain in data order: any other
// order changes the bits. The loop head is aligned to 32 bytes and its
// four adds, pointer step and branch fit in that window, so the loop runs
// the same wherever the linker places the package. SI: d; CX: cells left;
// X0: the sum.
TEXT ·sumAVX2(SB), NOSPLIT, $0-24
	MOVQ   d+0(FP), SI
	MOVQ   n+8(FP), CX
	VXORPD X0, X0, X0
	SUBQ   $4, CX
	JLT    sumTail
	PCALIGN $32

sum4:
	VADDSD (SI), X0, X0
	VADDSD 8(SI), X0, X0
	VADDSD 16(SI), X0, X0
	VADDSD 24(SI), X0, X0
	ADDQ   $32, SI
	SUBQ   $4, CX
	JGE    sum4

sumTail:
	ADDQ $4, CX
	JZ   sumDone

sum1:
	VADDSD (SI), X0, X0
	ADDQ   $8, SI
	DECQ   CX
	JNZ    sum1

sumDone:
	VMOVSD X0, ret+16(FP)
	RET

// func sumSqAVX2(d *float64, n int) (sum, sq float64)
//
// The sum and the sum of squares of d[0:n] from +0, two chains in data
// order, each square rounded before its add; the loop head is aligned as
// in sumAVX2. SI: d; CX: cells left; X0: the sum; X1: the sum of squares.
TEXT ·sumSqAVX2(SB), NOSPLIT, $0-32
	MOVQ   d+0(FP), SI
	MOVQ   n+8(FP), CX
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	SUBQ   $2, CX
	JLT    sqTail
	PCALIGN $32

sq2:
	VMOVSD (SI), X2
	VADDSD X2, X0, X0
	VMULSD X2, X2, X2
	VADDSD X2, X1, X1
	VMOVSD 8(SI), X3
	VADDSD X3, X0, X0
	VMULSD X3, X3, X3
	VADDSD X3, X1, X1
	ADDQ   $16, SI
	SUBQ   $2, CX
	JGE    sq2

sqTail:
	ADDQ   $2, CX
	JZ     sqDone
	VMOVSD (SI), X2
	VADDSD X2, X0, X0
	VMULSD X2, X2, X2
	VADDSD X2, X1, X1

sqDone:
	VMOVSD X0, sum+16(FP)
	VMOVSD X1, sq+24(FP)
	RET
