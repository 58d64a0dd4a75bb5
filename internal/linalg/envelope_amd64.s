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
