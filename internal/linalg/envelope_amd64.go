package linalg

import (
	"math"
	"slices"
)

// haveAVX2 reports whether the CPU runs AVX2 code and the OS saves the
// YMM registers; it selects the four-row panel kernel and the solve
// routines.  haveAVX512 reports, beside that, AVX-512 F and VL and an OS
// that saves the opmask and ZMM registers; it selects the eight-row
// panel kernel.
var haveAVX2, haveAVX512 = detectAVX()

// cpuid and xgetbv execute the instructions of the same names
// (envelope_amd64.s); xgetbv reads XCR0.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func detectAVX() (avx2, avx512 bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the upper YMM halves;
	// bits 5, 6 and 7: the opmask registers, the upper ZMM halves and
	// ZMM16–31.
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return false, false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const avx2Bit, avx512f, avx512vl = 1 << 5, 1 << 16, 1 << 31
	avx2 = ebx&avx2Bit != 0
	avx512 = avx2 && ebx&(avx512f|avx512vl) == avx512f|avx512vl && xcr0&0xe0 == 0xe0
	return avx2, avx512
}

// panelBlock is the panel routines' argument block for the rows
// i..i+w−1 of a block, w = 4 or 8, written once per block; everything
// that differs from one tile to the next the routines derive from first
// and ptr themselves.  They read the offsets of the fields from
// go_asm.h.
type panelBlock struct {
	// The envelope's storage and the panel kernel's scratch: lane r of
	// panel column k is L[i+r,k], at panel[w·k+r].
	env, panel *float64
	first, ptr *int
	// row[r] points at row i+r's column 0, &env[ptr[i+r]−first[i+r]]:
	// its entry of column j is row[r][j].  A four-row block fills row[:4].
	row [8]*float64
	// fmin and fmax are the earliest and the latest of first[i..i+w−1].
	fmin, fmax, i int
}

// panelTile computes the tile of rows i..i+3 × columns j..j+3
// (envelope_amd64.s).  It sets itself up from first[i..i+3] and
// first[j..j+3], ptr[j..j+3]: the sums run over k = kmin .. j-1, kmin
// the later of the two quadruples' earliest first columns, and lane
// (r,c) begins at max(first[i+r], first[j+c]); up to kmax, the latest of
// the eight, some lane has not begun.  Each of the 16 lanes starts from
// A[i+r,j+c] and subtracts L[i+r,k]·L[j+c,k] for k ascending, the
// product masked to +0 before the lane begins.  Off the diagonal it then
// subtracts the block's own columns c' < c in ascending order, divides by
// L[j+c,j+c], and stores the result in the panel's columns j..j+3 and in
// the rows; on it (diag, j = i) it stores the sums over k < i in the
// panel and leaves the rest to Go.
//
//go:noescape
func panelTile(b *panelBlock, j int, diag bool)

// panelTile8 is panelTile for the rows i..i+7 of an eight-row block,
// in AVX-512 lanes, one eight-lane register per column
// (envelope_amd64.s).  The rows need not have begun by column j: a lane
// whose row begins after column j+c is stored in no row and as +0 in the
// panel, and is never a product's operand in the block's own columns, so
// a tile may start before some of the block's rows, or all of them,
// begin.  On the diagonal it is called for columns i..i+3 and i+4..i+7,
// each time storing the sums over k < i in the panel.
//
//go:noescape
func panelTile8(b *panelBlock, j int, diag bool)

// choleskyPanel is CholeskyFactorInPlace by the AVX2 panel kernel, four
// rows at a time.
func (e *Envelope) choleskyPanel(st *Stats) error { return e.factorPanels(st, false) }

// choleskyPanel8 is CholeskyFactorInPlace by the AVX-512 panel kernel,
// eight rows at a time where a block qualifies and four where it does
// not.
func (e *Envelope) choleskyPanel8(st *Stats) error { return e.factorPanels(st, true) }

// factorPanels runs the panel kernel.  With wide set a block of rows
// i..i+7 goes eight-wide when i ≡ 0 mod 8 and all eight rows have begun
// by column i.  Otherwise a block of rows i..i+3 goes four-wide when all
// four have begun by column i, and the pair kernel takes the rows of
// the blocks that do not, and the last N mod 4 rows, unchanged.  Go
// decides block by block, and within a block column by column between a
// tile and a column alone; it writes one panelBlock per block, and the
// routines set each tile up from first and ptr themselves.
func (e *Envelope) factorPanels(st *Stats, wide bool) error {
	w := 4
	if wide {
		w = 8
	}
	if len(e.panel) < w*e.N {
		e.panel = make([]float64, w*e.N)
	}
	first := e.first
	i := 0
	for i+4 <= e.N {
		var err error
		switch {
		case wide && i%8 == 0 && i+8 <= e.N && slices.Max(first[i:i+8]) <= i:
			err = e.block8(st, i)
			i += 8
		case slices.Max(first[i:i+4]) <= i:
			err = e.block4(st, i)
			i += 4
		default:
			// A row beginning inside the block stores no entry in the
			// block's earlier columns for the panel to carry.
			err = e.factorPairs(st, i, i+4)
			i += 4
		}
		if err != nil {
			return err
		}
	}
	if err := e.factorPairs(st, i, e.N); err != nil {
		return err
	}
	st.addFlops(e.flops)
	return nil
}

// newPanelBlock returns the panelBlock of the rows i..i+len(rows)−1, all
// begun by column i, and points rows at their stored runs.  The panel
// lanes of a row not yet begun are set to +0 from the block's earliest
// first column on, which keeps NaNs and denormals out of the masked
// products.
func (e *Envelope) newPanelBlock(i int, rows [][]float64) panelBlock {
	env, first, ptr, panel := e.env, e.first, e.ptr, e.panel
	w := len(rows)
	f := first[i : i+w]
	b := panelBlock{env: &env[0], panel: &panel[0], first: &first[0], ptr: &ptr[0], fmin: slices.Min(f), fmax: slices.Max(f), i: i}
	for r, fr := range f {
		// ptr[m] ≥ m ≥ first[m], so the index is never negative.
		b.row[r] = &env[ptr[i+r]-fr]
		rows[r] = env[ptr[i+r]:ptr[i+r+1]]
		for k := b.fmin; k < fr; k++ {
			panel[w*k+r] = 0
		}
	}
	return b
}

// columnAlone computes column j of the block of rows i.. in rows on its
// own, each row that has begun by it, and keeps it in the panel.
func (e *Envelope) columnAlone(i, j int, rows [][]float64) {
	w := len(rows)
	for r, row := range rows {
		if fr := e.first[i+r]; fr <= j {
			e.entryAlone(row, fr, j)
			e.panel[w*j+r] = row[j-fr]
		}
	}
}

// block4 factors the rows i..i+3, all begun by column i, by panelTile.
// Columns j..j+3 go as a tile once all four rows and all four column rows
// have begun.
func (e *Envelope) block4(st *Stats, i int) error {
	first := e.first
	var rows [4][]float64
	b := e.newPanelBlock(i, rows[:])
	for j := b.fmin; j < i; {
		if j >= b.fmax && j+4 <= i && max(first[j], first[j+1], first[j+2], first[j+3]) <= j {
			panelTile(&b, j, false)
			j += 4
			continue
		}
		e.columnAlone(i, j, rows[:])
		j++
	}
	panelTile(&b, i, true)
	return e.finishBlock(st, i, rows[:])
}

// block8 factors the rows i..i+7, all begun by column i, by panelTile8.
// Its tiles are the columns j..j+3 with j ≡ 0 mod 4 from the one holding
// the block's earliest first column on, whenever the four column rows
// have begun by column j, so that they end at the diagonal; the rows need
// not have begun.  The columns of a quadruple that is not a tile go
// alone.
func (e *Envelope) block8(st *Stats, i int) error {
	first := e.first
	var rows [8][]float64
	b := e.newPanelBlock(i, rows[:])
	for j := b.fmin &^ 3; j < i; j += 4 {
		if max(first[j], first[j+1], first[j+2], first[j+3]) <= j {
			panelTile8(&b, j, false)
			continue
		}
		for c := j; c < j+4; c++ {
			e.columnAlone(i, c, rows[:])
		}
	}
	panelTile8(&b, i, true)
	panelTile8(&b, i+4, true)
	return e.finishBlock(st, i, rows[:])
}

// finishBlock finishes the diagonal block of the rows i..i+w−1 in rows
// from the routine's sums over k < i, kept in the panel's columns
// i..i+w−1: the block's triangle and pivots in row order, so a failing
// pivot stops at the row, with the rows, the row-by-row order would.
func (e *Envelope) finishBlock(st *Stats, i int, rows [][]float64) error {
	w := len(rows)
	sums := e.panel[w*i:][:w*w]
	// tri[r] is row i+r from column i to its diagonal, the last r+1
	// entries of its run.
	var tri [8][]float64
	for r, row := range rows {
		tri[r] = row[len(row)-r-1:]
	}
	for r, lr := range tri[:w] {
		for c, lc := range tri[:r] {
			s := sums[w*c+r]
			for k, v := range lc[:c] {
				s -= lr[k] * v
			}
			lr[c] = s / lc[c]
		}
		s := sums[(w+1)*r]
		for _, v := range lr[:r] {
			s -= v * v
		}
		if !(s > 0) {
			return e.failAt(st, i+r, s)
		}
		lr[r] = math.Sqrt(s)
	}
	return nil
}

// forwardLanes subtracts b_r[k]·y[k] from s[r] for k = 0 … n&^3 − 1 in
// ascending order, each product rounded before it is subtracted: the
// four rows' shared-column loop of CholeskySolveInto's forward half,
// with row r's entries from b_r (envelope_amd64.s).  Go runs the last
// n mod 4 columns.
//
//go:noescape
func forwardLanes(s *[4]float64, b0, b1, b2, b3, y *float64, n int)

// backwardLanes subtracts a0[k]·x0, a1[k]·x1, a2[k]·x2 and a3[k]·x3, in
// that order, from each y[k], k = 0 … n&^3 − 1, each product rounded
// before it is subtracted: the four rows' shared-column loop of
// CholeskySolveInto's backward half, row i−r's entries from a_r
// (envelope_amd64.s).  Go runs the last n mod 4 columns.
//
//go:noescape
func backwardLanes(y, a0, a1, a2, a3 *float64, x0, x1, x2, x3 float64, n int)
