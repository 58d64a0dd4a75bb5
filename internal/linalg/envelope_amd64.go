package linalg

import "math"

// haveAVX2 reports whether the CPU runs AVX2 code and the OS saves the
// YMM registers; it selects the panel kernel and the solve routines.
var haveAVX2 = detectAVX2()

// cpuid and xgetbv execute the instructions of the same names
// (envelope_amd64.s); xgetbv reads XCR0.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the upper YMM halves.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// panelBlock is panelTile's argument block for the rows i..i+3, written
// once per block; everything that differs from one tile to the next the
// routine derives from first and ptr itself.  It reads the offsets of the
// fields from go_asm.h.
type panelBlock struct {
	// The envelope's storage and the panel kernel's scratch: lane r of
	// panel column k is L[i+r,k], at panel[4k+r].
	env, panel *float64
	first, ptr *int
	// row[r] points at row i+r's column 0, &env[ptr[i+r]−first[i+r]]:
	// its entry of column j is row[r][j].
	row [4]*float64
	// fmin and fmax are the earliest and the latest of first[i..i+3].
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

// choleskyPanel is CholeskyFactorInPlace by the panel kernel.  A block
// of rows i..i+3 goes four-wide when i ≡ 0 mod 4 and all four rows have
// begun by column i; otherwise, and for the last N mod 4 rows, the pair
// kernel takes the rows unchanged.  Go decides, column by column, between
// a tile and a column alone, and writes one panelBlock per block of rows;
// the routine sets each tile up from first and ptr itself.
func (e *Envelope) choleskyPanel(st *Stats) error {
	if e.panel == nil {
		e.panel = make([]float64, 4*e.N)
	}
	env, first, ptr, panel := e.env, e.first, e.ptr, e.panel
	var b panelBlock
	var rows [4][]float64
	n4 := e.N &^ 3
	for i := 0; i < n4; i += 4 {
		f := (*[4]int)(first[i : i+4])
		late := max(f[0], f[1], f[2], f[3])
		if late > i {
			// A row beginning inside the block stores no entry in the
			// block's earlier columns for the panel to carry.
			if err := e.factorPairs(st, i, i+4); err != nil {
				return err
			}
			continue
		}
		early := min(f[0], f[1], f[2], f[3])
		b = panelBlock{env: &env[0], panel: &panel[0], first: &first[0], ptr: &ptr[0], fmin: early, fmax: late, i: i}
		for r, fr := range f {
			// ptr[m] ≥ m ≥ first[m], so the index is never negative.
			b.row[r] = &env[ptr[i+r]-fr]
			rows[r] = env[ptr[i+r]:ptr[i+r+1]]
			// The lanes of a row not yet begun read +0, which keeps NaNs
			// and denormals out of the masked products.
			for k := early; k < fr; k++ {
				panel[4*k+r] = 0
			}
		}
		for j := early; j < i; {
			// Columns j..j+3 go as a block once all four rows and all four
			// column rows have begun.
			if j >= late && j+4 <= i && max(first[j], first[j+1], first[j+2], first[j+3]) <= j {
				panelTile(&b, j, false)
				j += 4
				continue
			}
			for r, fr := range f {
				if fr <= j {
					e.entryAlone(rows[r], fr, j)
					panel[4*j+r] = rows[r][j-fr]
				}
			}
			j++
		}
		// The diagonal block: the routine's sums over k < i, then the
		// block's triangle and pivots in row order, so a failing pivot
		// stops at the row, with the rows, the row-by-row order would.
		panelTile(&b, i, true)
		sums := panel[4*i:][:16]
		for r, row := range rows {
			fr := f[r]
			for c := range r {
				lc := rows[c][i-f[c]:]
				s := sums[4*c+r]
				for k, v := range lc[:c] {
					s -= row[i+k-fr] * v
				}
				row[i+c-fr] = s / lc[c]
			}
			s := sums[5*r]
			for _, v := range row[i-fr : i+r-fr] {
				s -= v * v
			}
			if !(s > 0) {
				return e.failAt(st, i+r, s)
			}
			row[i+r-fr] = math.Sqrt(s)
		}
	}
	if err := e.factorPairs(st, n4, e.N); err != nil {
		return err
	}
	st.addFlops(e.flops)
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
