package linalg

import "math"

// haveAVX2 reports whether the CPU runs AVX2 code and the OS saves the
// YMM registers; it selects the panel kernel.
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

// tile is panelTile's argument block: a 4×4 block of factor entries,
// rows i..i+3 × columns j..j+3, whose sums run over k = kmin .. j-1.
// panelTile reads the offsets of its fields from go_asm.h.
type tile struct {
	// panel points at the panel's column kmin: lane r of column k is
	// L[i+r,k], at panel[4(k−kmin)+r].
	panel *float64
	// col[c] points at L[j+c,kmin] in row j+c's storage; below the row's
	// first column it points into earlier rows, which the mask hides.
	col [4]*float64
	// row[r] points at A[i+r,j] in row i+r's storage.
	row [4]*float64
	// start[c][r] is lane (r,c)'s first k, less kmin; below masked some
	// lane has not begun, from masked to n every lane runs.
	start     [4][4]int64
	masked, n int64
	// diag marks the block on the diagonal (j = i): panelTile stores the
	// sums over k < i in the panel and leaves the rest to Go.
	diag bool
}

// panelTile computes one tile (envelope_amd64.s).  Each of its 16 lanes
// starts from A[i+r,j+c] and subtracts L[i+r,k]·L[j+c,k] for k ascending,
// the product masked to +0 before start[c][r].  Off the diagonal it then
// subtracts the block's own columns c' < c in ascending order, divides by
// L[j+c,j+c], and stores the result in the panel's columns j..j+3 and
// in the rows.
//
//go:noescape
func panelTile(t *tile)

// choleskyPanel is CholeskyFactorInPlace by the panel kernel.  A block
// of rows i..i+3 goes four-wide when i ≡ 0 mod 4 and all four rows have
// begun by column i; otherwise, and for the last N mod 4 rows, the pair
// kernel takes the rows unchanged.
func (e *Envelope) choleskyPanel(st *Stats) error {
	if e.panel == nil {
		e.panel = make([]float64, 4*e.N)
	}
	env, first, ptr, panel := e.env, e.first, e.ptr, e.panel
	var t tile
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
		for r, fr := range f {
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
				e.runTile(&t, f, i, j)
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
		e.runTile(&t, f, i, i)
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

// runTile fills t for rows i..i+3, whose first columns are f, and
// columns j..j+3, and runs panelTile on it.
func (e *Envelope) runTile(t *tile, f *[4]int, i, j int) {
	env, first, ptr := e.env, e.first, e.ptr
	fc := (*[4]int)(first[j : j+4])
	kmin := max(min(f[0], f[1], f[2], f[3]), min(fc[0], fc[1], fc[2], fc[3]))
	kmax := max(f[0], f[1], f[2], f[3], fc[0], fc[1], fc[2], fc[3])
	t.panel = &e.panel[4*kmin]
	for c, fj := range fc {
		// ptr[m] ≥ m ≥ first[m], so the index is never negative.
		t.col[c] = &env[ptr[j+c]-fj+kmin]
		t.row[c] = &env[ptr[i+c]-f[c]+j]
		for r, fi := range f {
			t.start[c][r] = int64(max(fi, fj) - kmin)
		}
	}
	t.masked, t.n = int64(kmax-kmin), int64(j-kmin)
	t.diag = j == i
	panelTile(t)
}
