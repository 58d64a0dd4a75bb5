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

// func panelTile(t *tile)
//
// Registers: DI the tile, SI the panel at column k, R8..R11 the column
// rows at kmin, CX k−kmin, DX masked, BX n; Y0..Y3 the sums of columns
// j..j+3 (lane r = row i+r), Y4..Y7 the lane starts, Y8 k−kmin in every
// lane, Y9 all ones (−1), Y10 the panel column.  VEX encoding only: one
// legacy SSE instruction between these would cost a state transition.
TEXT ·panelTile(SB), NOSPLIT, $0-8
	MOVQ t+0(FP), DI
	MOVQ tile_panel(DI), SI
	MOVQ tile_col+0(DI), R8
	MOVQ tile_col+8(DI), R9
	MOVQ tile_col+16(DI), R10
	MOVQ tile_col+24(DI), R11
	MOVQ tile_masked(DI), DX
	MOVQ tile_n(DI), BX

	// The sums start from the rows' stored entries, transposed into
	// columns.
	MOVQ tile_row+0(DI), AX
	VMOVUPD (AX), Y4
	MOVQ tile_row+8(DI), AX
	VMOVUPD (AX), Y5
	MOVQ tile_row+16(DI), AX
	VMOVUPD (AX), Y6
	MOVQ tile_row+24(DI), AX
	VMOVUPD (AX), Y7
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)

	XORQ CX, CX
	TESTQ DX, DX
	JEQ  dense

	VMOVDQU tile_start+0(DI), Y4
	VMOVDQU tile_start+32(DI), Y5
	VMOVDQU tile_start+64(DI), Y6
	VMOVDQU tile_start+96(DI), Y7
	VPXOR    Y8, Y8, Y8
	VPCMPEQQ Y9, Y9, Y9

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
	CMPB tile_diag(DI), $0
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
	MOVQ    tile_row+0(DI), AX
	VMOVUPD Y4, (AX)
	MOVQ    tile_row+8(DI), AX
	VMOVUPD Y5, (AX)
	MOVQ    tile_row+16(DI), AX
	VMOVUPD Y6, (AX)
	MOVQ    tile_row+24(DI), AX
	VMOVUPD Y7, (AX)
	VZEROUPPER
	RET

diag:
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	VMOVUPD Y2, 64(SI)
	VMOVUPD Y3, 96(SI)
	VZEROUPPER
	RET
