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

// iota4 is 0, 1, 2, 3, the columns of a tile in the lanes of a YMM.
DATA iota4<>+0(SB)/8, $0
DATA iota4<>+8(SB)/8, $1
DATA iota4<>+16(SB)/8, $2
DATA iota4<>+24(SB)/8, $3
GLOBL iota4<>(SB), RODATA|NOPTR, $32

// MASKED8 subtracts from acc the product of the panel column in Z10 and
// the broadcast L[j+c,k] at (col)(CX*8), the product masked to +0 in the
// lanes whose start lies above k (Z8), by the opmask K.
#define MASKED8(col, start, K, acc) \
	VPCMPQ        $2, Z8, start, K; \
	VMULPD.BCST.Z (col)(CX*8), Z10, K, Z11; \
	VSUBPD        Z11, acc, acc

// DENSE8 is MASKED8 with every lane running.
#define DENSE8(col, T, acc) \
	VMULPD.BCST (col)(CX*8), Z10, T; \
	VSUBPD      T, acc, acc

// LOADROWS8 loads the rows off..off+3 of the block at column j (BX),
// four entries each, into Y4..Y7; AX is scratch.
#define LOADROWS8(off) \
	MOVQ    panelBlock_row+off(DI), AX; \
	VMOVUPD (AX)(BX*8), Y4; \
	MOVQ    panelBlock_row+off+8(DI), AX; \
	VMOVUPD (AX)(BX*8), Y5; \
	MOVQ    panelBlock_row+off+16(DI), AX; \
	VMOVUPD (AX)(BX*8), Y6; \
	MOVQ    panelBlock_row+off+24(DI), AX; \
	VMOVUPD (AX)(BX*8), Y7

// STOREROW8 stores y at column j (R12) of the block's row at off.
#define STOREROW8(off, y) \
	MOVQ    panelBlock_row+off(DI), AX; \
	VMOVUPD y, (AX)(R12*8)

// MASKROW8 stores y at column j (R12) of the block's row at off, in the
// columns the row has begun by: those of Y13 (j..j+3) not below its
// first column, at off(CX).
#define MASKROW8(off, y) \
	VPCMPQ.BCST $5, off(CX), Y13, K5; \
	MOVQ        panelBlock_row+off(DI), AX; \
	VMOVUPD     y, K5, (AX)(R12*8)

// func panelTile8(b *panelBlock, j int, diag bool)
//
// panelTile for eight rows, in AVX-512 lanes.  The set-up is panelTile's
// but that first[i..i+7] is one ZMM (Z12), the panel's columns are 64
// bytes apart, and the sums may run nowhere (kmin > j, when no row has
// begun by column j) or past the masked steps' end (kmax > j, when some
// row begins inside the tile or after it).  Off the diagonal the opmasks
// K1..K4 hold the rows that have begun by columns j..j+3: they mask the
// products of the block's own columns and zero the quotients of the rows
// not begun, and a row begun after column j stores only the columns it
// has begun by.
// Registers in the loops: DI the block, SI the panel at column k,
// R8..R11 the column rows at kmin, CX k−kmin, DX the masked steps, BX
// the steps, R12 j−kmin, R13 kmin; Z0..Z3 the sums of columns j..j+3
// (lane r = row i+r), Z4..Z7 the lane starts, Z8 k−kmin in every lane,
// Z9 all ones (−1), Z10 the panel column.  Only Z0..Z14 are used, so
// VZEROUPPER leaves no upper state behind.
TEXT ·panelTile8(SB), NOSPLIT, $0-17
	MOVQ b+0(FP), DI
	MOVQ j+8(FP), BX
	MOVQ panelBlock_first(DI), R12
	LEAQ (R12)(BX*8), R12
	MOVQ panelBlock_ptr(DI), R13
	LEAQ (R13)(BX*8), R13

	// kmin (CX) and kmax−kmin (DX), as in panelTile.
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
	MOVQ CX, R13
	SHLQ $6, CX
	MOVQ panelBlock_panel(DI), SI
	ADDQ CX, SI

	// The sums start from the rows' stored entries in column j (of a row
	// not begun, another row's, which no store keeps): rows 0..3 and
	// 4..7 transposed into the low and the high halves of Z0..Z3.
	LOADROWS8(0)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	LOADROWS8(32)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	VINSERTF64X4 $1, Y4, Z0, Z0
	VINSERTF64X4 $1, Y5, Z1, Z1
	VINSERTF64X4 $1, Y6, Z2, Z2
	VINSERTF64X4 $1, Y7, Z3, Z3
	MOVQ         panelBlock_first(DI), AX
	MOVQ         panelBlock_i(DI), CX
	VMOVDQU64    (AX)(CX*8), Z12

	// The lane starts max(first[i+r], first[j+c]) − kmin, only when some
	// lane has not begun at kmin.
	TESTQ        DX, DX
	JEQ          steps8
	VPBROADCASTQ R13, Z8
	VPMAXSQ.BCST (R12), Z12, Z4
	VPSUBQ       Z8, Z4, Z4
	VPMAXSQ.BCST 8(R12), Z12, Z5
	VPSUBQ       Z8, Z5, Z5
	VPMAXSQ.BCST 16(R12), Z12, Z6
	VPSUBQ       Z8, Z6, Z6
	VPMAXSQ.BCST 24(R12), Z12, Z7
	VPSUBQ       Z8, Z7, Z7
	VPXORQ       Z8, Z8, Z8
	VPTERNLOGQ   $0xff, Z9, Z9, Z9

steps8:
	// The sums run to column j, on the diagonal to column i, and the
	// masked steps end with them if the lanes begin later still.
	MOVQ    j+8(FP), R12
	SUBQ    R13, R12
	MOVQ    R12, BX
	CMPB    diag+16(FP), $0
	JEQ     bounds8
	MOVQ    panelBlock_i(DI), BX
	SUBQ    R13, BX

bounds8:
	CMPQ    DX, BX
	CMOVQGT BX, DX
	XORQ    CX, CX
	CMPQ    CX, DX
	JGE     dense8

masked8:
	VMOVUPD (SI), Z10
	MASKED8(R8, Z4, K1, Z0)
	MASKED8(R9, Z5, K2, Z1)
	MASKED8(R10, Z6, K3, Z2)
	MASKED8(R11, Z7, K4, Z3)
	VPSUBQ  Z9, Z8, Z8
	ADDQ    $64, SI
	INCQ    CX
	CMPQ    CX, DX
	JLT     masked8

dense8:
	CMPQ CX, BX
	JGE  sums8

loop8:
	VMOVUPD (SI), Z10
	DENSE8(R8, Z11, Z0)
	DENSE8(R9, Z13, Z1)
	DENSE8(R10, Z14, Z2)
	DENSE8(R11, Z11, Z3)
	ADDQ    $64, SI
	INCQ    CX
	CMPQ    CX, BX
	JLT     loop8

sums8:
	// AX is the panel at column j, and (col)(R12*8) is L[j+c,j].
	MOVQ j+8(FP), BX
	MOVQ BX, AX
	SHLQ $6, AX
	ADDQ panelBlock_panel(DI), AX
	CMPB diag+16(FP), $0
	JNE  diag8

	// K1..K4: the rows begun by columns j..j+3.
	VPBROADCASTQ BX, Z13
	VPCMPQ       $2, Z13, Z12, K1
	INCQ         BX
	VPBROADCASTQ BX, Z13
	VPCMPQ       $2, Z13, Z12, K2
	INCQ         BX
	VPBROADCASTQ BX, Z13
	VPCMPQ       $2, Z13, Z12, K3
	INCQ         BX
	VPBROADCASTQ BX, Z13
	VPCMPQ       $2, Z13, Z12, K4

	// The block's own columns in ascending order, each product masked to
	// +0 in the rows not begun by its column, then the division, whose
	// result is +0 in those rows: what Go left in their panel lanes, so
	// the panel takes whole columns, which the next tile's loads can be
	// forwarded from.  Rows 0..3 (Y0..Y3, masks K1..K4) and rows 4..7
	// (Y4..Y7, the masks shifted into K5..K7, and K4) go as two chains: a
	// YMM division takes about half as long as a ZMM one.
	VEXTRACTF64X4 $1, Z0, Y4
	VEXTRACTF64X4 $1, Z1, Y5
	VEXTRACTF64X4 $1, Z2, Y6
	VEXTRACTF64X4 $1, Z3, Y7
	KSHIFTRW      $4, K1, K5
	KSHIFTRW      $4, K2, K6
	KSHIFTRW      $4, K3, K7

	VDIVPD.BCST.Z (R8)(R12*8), Y0, K1, Y0
	VDIVPD.BCST.Z (R8)(R12*8), Y4, K5, Y4

	VMULPD.BCST.Z (R9)(R12*8), Y0, K1, Y8
	VSUBPD        Y8, Y1, Y1
	VMULPD.BCST.Z (R9)(R12*8), Y4, K5, Y9
	VSUBPD        Y9, Y5, Y5
	VDIVPD.BCST.Z 8(R9)(R12*8), Y1, K2, Y1
	VDIVPD.BCST.Z 8(R9)(R12*8), Y5, K6, Y5

	VMULPD.BCST.Z (R10)(R12*8), Y0, K1, Y8
	VSUBPD        Y8, Y2, Y2
	VMULPD.BCST.Z (R10)(R12*8), Y4, K5, Y9
	VSUBPD        Y9, Y6, Y6
	VMULPD.BCST.Z 8(R10)(R12*8), Y1, K2, Y8
	VSUBPD        Y8, Y2, Y2
	VMULPD.BCST.Z 8(R10)(R12*8), Y5, K6, Y9
	VSUBPD        Y9, Y6, Y6
	VDIVPD.BCST.Z 16(R10)(R12*8), Y2, K3, Y2
	VDIVPD.BCST.Z 16(R10)(R12*8), Y6, K7, Y6

	VMULPD.BCST.Z (R11)(R12*8), Y0, K1, Y8
	VSUBPD        Y8, Y3, Y3
	VMULPD.BCST.Z (R11)(R12*8), Y4, K5, Y9
	VSUBPD        Y9, Y7, Y7
	VMULPD.BCST.Z 8(R11)(R12*8), Y1, K2, Y8
	VSUBPD        Y8, Y3, Y3
	VMULPD.BCST.Z 8(R11)(R12*8), Y5, K6, Y9
	VSUBPD        Y9, Y7, Y7
	VMULPD.BCST.Z 16(R11)(R12*8), Y2, K3, Y8
	VSUBPD        Y8, Y3, Y3
	VMULPD.BCST.Z 16(R11)(R12*8), Y6, K7, Y9
	VSUBPD        Y9, Y7, Y7
	VDIVPD.BCST.Z 24(R11)(R12*8), Y3, K4, Y3
	KSHIFTRW      $4, K4, K4
	VDIVPD.BCST.Z 24(R11)(R12*8), Y7, K4, Y7

	VINSERTF64X4 $1, Y4, Z0, Z8
	VMOVUPD      Z8, (AX)
	VINSERTF64X4 $1, Y5, Z1, Z9
	VMOVUPD      Z9, 64(AX)
	VINSERTF64X4 $1, Y6, Z2, Z10
	VMOVUPD      Z10, 128(AX)
	VINSERTF64X4 $1, Y7, Z3, Z11
	VMOVUPD      Z11, 192(AX)

	// Back into rows 0..3 (Y0..Y3) and 4..7 (Y4..Y7).
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	MOVQ j+8(FP), R12
	CMPQ panelBlock_fmax(DI), R12
	JGT  ragged8
	STOREROW8(0, Y0)
	STOREROW8(8, Y1)
	STOREROW8(16, Y2)
	STOREROW8(24, Y3)
	STOREROW8(32, Y4)
	STOREROW8(40, Y5)
	STOREROW8(48, Y6)
	STOREROW8(56, Y7)
	VZEROUPPER
	RET

ragged8:
	VPBROADCASTQ R12, Y13
	VPADDQ       iota4<>(SB), Y13, Y13
	MOVQ         panelBlock_first(DI), CX
	MOVQ         panelBlock_i(DI), DX
	LEAQ         (CX)(DX*8), CX
	MASKROW8(0, Y0)
	MASKROW8(8, Y1)
	MASKROW8(16, Y2)
	MASKROW8(24, Y3)
	MASKROW8(32, Y4)
	MASKROW8(40, Y5)
	MASKROW8(48, Y6)
	MASKROW8(56, Y7)
	VZEROUPPER
	RET

diag8:
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 64(AX)
	VMOVUPD Z2, 128(AX)
	VMOVUPD Z3, 192(AX)
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
