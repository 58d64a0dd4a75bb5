#include "textflag.h"
#include "go_asm.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// TRANSPOSE4 transposes the 4×4 block a0..a3 (four doubles each) into
// b0..b3, using T0..T3 as scratch: b_c[r] = a_r[c].
#define TRANSPOSE4(a0, a1, a2, a3, b0, b1, b2, b3, T0, T1, T2, T3) \
	VUNPCKLPD a1, a0, T0; \
	VUNPCKHPD a1, a0, T1; \
	VUNPCKLPD a3, a2, T2; \
	VUNPCKHPD a3, a2, T3; \
	VPERM2F128 $0x20, T2, T0, b0; \
	VPERM2F128 $0x20, T3, T1, b1; \
	VPERM2F128 $0x31, T2, T0, b2; \
	VPERM2F128 $0x31, T3, T1, b3

// MASKED subtracts from acc the product of the panel column in Y10 and
// the broadcast L[j+c,k] at (col)(CX*8), the product masked to +0 in the
// lanes whose start lies above k (Y8).
#define MASKED(col, start, acc) \
	VBROADCASTSD (col)(CX*8), Y11; \
	VMULPD Y11, Y10, Y11; \
	VPCMPGTQ Y8, start, Y12; \
	VANDNPD Y11, Y12, Y11; \
	VSUBPD Y11, acc, acc

// DENSE is MASKED with every lane running.
#define DENSE(col, T, acc) \
	VBROADCASTSD (col)(CX*8), T; \
	VMULPD T, Y10, T; \
	VSUBPD T, acc, acc

// COLUMN points col at L[j+c,kmin] in row j+c's storage, given
// first[j+c] in col, the row's ptr at off(R13), kmin in CX and the
// storage in AX: &env[ptr[j+c] − first[j+c] + kmin].  Below the row's
// first column it points into earlier rows, which the mask hides.
#define COLUMN(off, col) \
	NEGQ col; \
	ADDQ CX, col; \
	ADDQ off(R13), col; \
	LEAQ (AX)(col*8), col

// START sets lane r of start to max(first[i+r], first[j+c]) − kmin, given
// first[i..i+3] in Y9, kmin in every lane of Y8 and first[j+c] at
// off(R12); Y10 is scratch.
#define START(off, start) \
	VPBROADCASTQ off(R12), start; \
	VPCMPGTQ     start, Y9, Y10; \
	VBLENDVPD    Y10, Y9, start, start; \
	VPSUBQ       Y8, start, start

// func panelTile(b *panelBlock, j int, diag bool)
//
// The set-up reads first[j..j+3] and ptr[j..j+3] and the block's fields
// with scalar loads, and first[i..i+3] as one vector: Go writes nothing
// per tile for a wide load to wait on.  Registers in the loops: DI the
// block, SI the panel at column k, R8..R11 the column rows at kmin, CX
// k−kmin, DX masked, BX n; Y0..Y3 the sums of columns j..j+3 (lane r =
// row i+r), Y4..Y7 the lane starts, Y8 k−kmin in every lane, Y9 all ones
// (−1), Y10 the panel column.  VEX encoding only: one legacy SSE
// instruction between these would cost a state transition.
TEXT ·panelTile(SB), NOSPLIT, $0-17
	MOVQ b+0(FP), DI
	MOVQ j+8(FP), BX
	MOVQ panelBlock_first(DI), R12
	LEAQ (R12)(BX*8), R12
	MOVQ panelBlock_ptr(DI), R13
	LEAQ (R13)(BX*8), R13

	// kmin (CX) is the later of the rows' earliest first column and the
	// column rows' (first[j..j+3], R8..R11), kmax (DX) the latest of all.
	MOVQ    (R12), R8
	MOVQ    8(R12), R9
	MOVQ    16(R12), R10
	MOVQ    24(R12), R11
	MOVQ    R8, AX
	CMPQ    R9, AX
	CMOVQLT R9, AX
	CMPQ    R10, AX
	CMOVQLT R10, AX
	CMPQ    R11, AX
	CMOVQLT R11, AX
	MOVQ    panelBlock_fmin(DI), CX
	CMPQ    AX, CX
	CMOVQGT AX, CX
	MOVQ    panelBlock_fmax(DI), DX
	CMPQ    R8, DX
	CMOVQGT R8, DX
	CMPQ    R9, DX
	CMOVQGT R9, DX
	CMPQ    R10, DX
	CMOVQGT R10, DX
	CMPQ    R11, DX
	CMOVQGT R11, DX
	SUBQ    CX, DX

	// The column rows and the panel at kmin.
	MOVQ panelBlock_env(DI), AX
	COLUMN(0, R8)
	COLUMN(8, R9)
	COLUMN(16, R10)
	COLUMN(24, R11)
	MOVQ CX, AX
	SHLQ $5, AX
	MOVQ panelBlock_panel(DI), SI
	ADDQ AX, SI

	// The sums start from the rows' stored entries in column j,
	// transposed into columns.
	MOVQ    panelBlock_row+0(DI), AX
	VMOVUPD (AX)(BX*8), Y4
	MOVQ    panelBlock_row+8(DI), AX
	VMOVUPD (AX)(BX*8), Y5
	MOVQ    panelBlock_row+16(DI), AX
	VMOVUPD (AX)(BX*8), Y6
	MOVQ    panelBlock_row+24(DI), AX
	VMOVUPD (AX)(BX*8), Y7
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	SUBQ CX, BX

	// The lane starts, only when some lane has not begun at kmin.
	MOVQ  CX, R13
	XORQ  CX, CX
	TESTQ DX, DX
	JEQ   dense

	VMOVQ        R13, X8
	VPBROADCASTQ X8, Y8
	MOVQ         panelBlock_first(DI), AX
	MOVQ         panelBlock_i(DI), R13
	VMOVDQU      (AX)(R13*8), Y9
	START(0, Y4)
	START(8, Y5)
	START(16, Y6)
	START(24, Y7)
	VPXOR        Y8, Y8, Y8
	VPCMPEQQ     Y9, Y9, Y9

masked:
	VMOVUPD (SI), Y10
	MASKED(R8, Y4, Y0)
	MASKED(R9, Y5, Y1)
	MASKED(R10, Y6, Y2)
	MASKED(R11, Y7, Y3)
	VPSUBQ Y9, Y8, Y8
	ADDQ $32, SI
	INCQ CX
	CMPQ CX, DX
	JLT  masked

dense:
	CMPQ CX, BX
	JGE  sums

loop:
	VMOVUPD (SI), Y10
	DENSE(R8, Y11, Y0)
	DENSE(R9, Y12, Y1)
	DENSE(R10, Y13, Y2)
	DENSE(R11, Y14, Y3)
	ADDQ $32, SI
	INCQ CX
	CMPQ CX, BX
	JLT  loop

sums:
	// SI is the panel at column j now, and (col)(BX*8) is L[j+c,j].
	CMPB diag+16(FP), $0
	JNE  diag

	// The block's own columns in ascending order, then the division.
	VBROADCASTSD (R8)(BX*8), Y12
	VDIVPD       Y12, Y0, Y0

	VBROADCASTSD (R9)(BX*8), Y12
	VMULPD       Y12, Y0, Y12
	VSUBPD       Y12, Y1, Y1
	VBROADCASTSD 8(R9)(BX*8), Y12
	VDIVPD       Y12, Y1, Y1

	VBROADCASTSD (R10)(BX*8), Y12
	VMULPD       Y12, Y0, Y12
	VSUBPD       Y12, Y2, Y2
	VBROADCASTSD 8(R10)(BX*8), Y12
	VMULPD       Y12, Y1, Y12
	VSUBPD       Y12, Y2, Y2
	VBROADCASTSD 16(R10)(BX*8), Y12
	VDIVPD       Y12, Y2, Y2

	VBROADCASTSD (R11)(BX*8), Y12
	VMULPD       Y12, Y0, Y12
	VSUBPD       Y12, Y3, Y3
	VBROADCASTSD 8(R11)(BX*8), Y12
	VMULPD       Y12, Y1, Y12
	VSUBPD       Y12, Y3, Y3
	VBROADCASTSD 16(R11)(BX*8), Y12
	VMULPD       Y12, Y2, Y12
	VSUBPD       Y12, Y3, Y3
	VBROADCASTSD 24(R11)(BX*8), Y12
	VDIVPD       Y12, Y3, Y3

	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	VMOVUPD Y2, 64(SI)
	VMOVUPD Y3, 96(SI)
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	MOVQ    j+8(FP), R12
	MOVQ    panelBlock_row+0(DI), AX
	VMOVUPD Y4, (AX)(R12*8)
	MOVQ    panelBlock_row+8(DI), AX
	VMOVUPD Y5, (AX)(R12*8)
	MOVQ    panelBlock_row+16(DI), AX
	VMOVUPD Y6, (AX)(R12*8)
	MOVQ    panelBlock_row+24(DI), AX
	VMOVUPD Y7, (AX)(R12*8)
	VZEROUPPER
	RET

diag:
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	VMOVUPD Y2, 64(SI)
	VMOVUPD Y3, 96(SI)
	VZEROUPPER
	RET

// func forwardLanes(s *[4]float64, b0, b1, b2, b3, y *float64, n int)
//
// Lane r of Y0 is row r's sum s[r].  Each four k, the rows' entries
// b_r[k..k+3] are loaded and transposed into Y4..Y7, lane r of Y(4+c)
// being b_r[k+c]; then for c ascending y[k+c] is broadcast, multiplied
// by Y(4+c) and subtracted from Y0, so each lane is its row's scalar
// chain.  AX is the byte offset of k, CX the vectors left.  Go has just
// written s eight bytes at a time, so it is read back the same way: one
// 32-byte load of it would wait for the stores to retire, as the store
// buffer cannot forward four stores into one load.
TEXT ·forwardLanes(SB), NOSPLIT, $0-56
	MOVQ        s+0(FP), DI
	MOVQ        b0+8(FP), R8
	MOVQ        b1+16(FP), R9
	MOVQ        b2+24(FP), R10
	MOVQ        b3+32(FP), R11
	MOVQ        y+40(FP), SI
	MOVQ        n+48(FP), CX
	SHRQ        $2, CX
	VMOVSD      (DI), X0
	VMOVHPD     8(DI), X0, X0
	VMOVSD      16(DI), X1
	VMOVHPD     24(DI), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	XORQ        AX, AX
	TESTQ       CX, CX
	JEQ         fstore

floop:
	VMOVUPD (R8)(AX*1), Y4
	VMOVUPD (R9)(AX*1), Y5
	VMOVUPD (R10)(AX*1), Y6
	VMOVUPD (R11)(AX*1), Y7
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	VBROADCASTSD (SI)(AX*1), Y12
	VMULPD       Y12, Y4, Y12
	VSUBPD       Y12, Y0, Y0
	VBROADCASTSD 8(SI)(AX*1), Y13
	VMULPD       Y13, Y5, Y13
	VSUBPD       Y13, Y0, Y0
	VBROADCASTSD 16(SI)(AX*1), Y12
	VMULPD       Y12, Y6, Y12
	VSUBPD       Y12, Y0, Y0
	VBROADCASTSD 24(SI)(AX*1), Y13
	VMULPD       Y13, Y7, Y13
	VSUBPD       Y13, Y0, Y0
	ADDQ         $32, AX
	DECQ         CX
	JNE          floop

fstore:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func backwardLanes(y, a0, a1, a2, a3 *float64, x0, x1, x2, x3 float64, n int)
//
// Y4..Y7 hold x0..x3 in every lane.  Each four k, y[k..k+3] is loaded,
// receives a0·x0, a1·x1, a2·x2 and a3·x3 in that order, each product
// rounded on its own, and is stored.  AX is the byte offset of k, CX
// the vectors left.
TEXT ·backwardLanes(SB), NOSPLIT, $0-80
	MOVQ         y+0(FP), DI
	MOVQ         a0+8(FP), R8
	MOVQ         a1+16(FP), R9
	MOVQ         a2+24(FP), R10
	MOVQ         a3+32(FP), R11
	VBROADCASTSD x0+40(FP), Y4
	VBROADCASTSD x1+48(FP), Y5
	VBROADCASTSD x2+56(FP), Y6
	VBROADCASTSD x3+64(FP), Y7
	MOVQ         n+72(FP), CX
	SHRQ         $2, CX
	XORQ         AX, AX
	TESTQ        CX, CX
	JEQ          bdone

bloop:
	VMOVUPD (DI)(AX*1), Y0
	VMULPD  (R8)(AX*1), Y4, Y8
	VSUBPD  Y8, Y0, Y0
	VMULPD  (R9)(AX*1), Y5, Y9
	VSUBPD  Y9, Y0, Y0
	VMULPD  (R10)(AX*1), Y6, Y10
	VSUBPD  Y10, Y0, Y0
	VMULPD  (R11)(AX*1), Y7, Y11
	VSUBPD  Y11, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNE     bloop

bdone:
	VZEROUPPER
	RET
