package linalg

import (
	"fmt"
	"sort"
)

// Triplet is one (row, col, value) contribution to a sparse matrix under
// assembly.  Finite element assembly produces duplicate (row, col) entries
// that sum.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix, the structure-preserving storage
// for the irregular meshes the FEM-2 hardware requirements call
// "irregular communication patterns".  Row i's entries occupy
// ColIdx[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]], columns
// sorted ascending within each row.
type CSR struct {
	N      int // square order
	RowPtr []int
	ColIdx []int
	Val    []float64
}

// NewCSRFromTriplets builds an n×n CSR matrix from assembly triplets,
// summing duplicates.  Row/col indices must lie in [0,n).
//
// Every (row, col) coordinate present in ts is stored, even when its
// values sum to exactly zero: the sparsity pattern is a function of the
// coordinates alone, so a Pattern reused across numeric re-assemblies
// always agrees with a from-scratch build.  Duplicates sum in input
// order, making the result bit-identical to a direct scatter-add.
func NewCSRFromTriplets(n int, ts []Triplet) (*CSR, error) {
	rows := make([]int32, len(ts))
	cols := make([]int32, len(ts))
	for k, t := range ts {
		// Checked here, before an index past int32 could wrap into range.
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			return nil, outside(t.Row, t.Col, n)
		}
		rows[k], cols[k] = int32(t.Row), int32(t.Col)
	}
	scatter := make([]int32, len(ts))
	pat, err := NewPattern(n, rows, cols, scatter)
	if err != nil {
		return nil, err
	}
	m := pat.NewCSR()
	for k, t := range ts {
		m.Val[scatter[k]] += t.Val
	}
	return m, nil
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns element (i,j) by binary search within row i.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	cols := m.ColIdx[lo:hi]
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return m.Val[lo+k]
	}
	return 0
}

// RowNNZ returns the number of non-zeros in row i.
func (m *CSR) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// MulVec computes out = M*x, allocating out when nil.  This is the SpMV
// kernel at the heart of the iterative FEM solvers, and the residual of
// every direct solve.
func (m *CSR) MulVec(x, out Vector, st *Stats) Vector {
	if len(x) != m.N {
		panic(fmt.Errorf("%w: CSR.MulVec order %d by %d", ErrDimension, m.N, len(x)))
	}
	if out == nil {
		out = NewVector(m.N)
	}
	m.mulRows(x, out, 0, m.N)
	st.addFlops(int64(2 * m.NNZ()))
	return out
}

// MulVecRows computes out[i] = (M*x)[i] for i in [rowLo,rowHi) only.  The
// iterative kernels partition rows into blocks (Blocks) and call it on
// each block; x is the block's window onto the full iterate.
func (m *CSR) MulVecRows(x, out Vector, rowLo, rowHi int, st *Stats) {
	if len(x) != m.N || len(out) != m.N {
		panic(fmt.Errorf("%w: CSR.MulVecRows", ErrDimension))
	}
	if rowLo < 0 || rowHi > m.N || rowLo > rowHi {
		panic(fmt.Errorf("linalg: MulVecRows range [%d,%d) outside order %d", rowLo, rowHi, m.N))
	}
	m.mulRows(x, out, rowLo, rowHi)
	st.addFlops(int64(2 * (m.RowPtr[rowHi] - m.RowPtr[rowLo])))
}

// mulRows is the product kernel: out[i] = Σ Val[k]·x[ColIdx[k]] for i in
// [lo,hi), each row one sum from +0 over its entries in ascending k.  One
// sum is a chain of dependent additions, so rows go four at a time: four
// sums advance together over the shortest of the four rows, then each
// row finishes its own tail — every sum still adds its own terms in its
// own order, hence bitwise the one-row-at-a-time loop.
func (m *CSR) mulRows(x, out Vector, lo, hi int) {
	rp, ci, val := m.RowPtr, m.ColIdx, m.Val
	i := lo
	for ; i+4 <= hi; i += 4 {
		p0, p1, p2, p3, p4 := rp[i], rp[i+1], rp[i+2], rp[i+3], rp[i+4]
		n := min(p1-p0, p2-p1, p3-p2, p4-p3)
		s0, s1, s2, s3 := dot4(val[p0:p4], ci[p0:p4], x, n, p1-p0, p2-p0, p3-p0)
		out[i] = addDot(s0, val[p0+n:p1], ci[p0+n:p1], x)
		out[i+1] = addDot(s1, val[p1+n:p2], ci[p1+n:p2], x)
		out[i+2] = addDot(s2, val[p2+n:p3], ci[p2+n:p3], x)
		out[i+3] = addDot(s3, val[p3+n:p4], ci[p3+n:p4], x)
	}
	for ; i < hi; i++ {
		p0, p1 := rp[i], rp[i+1]
		out[i] = addDot(0, val[p0:p1], ci[p0:p1], x)
	}
}

// dot4 returns the first n terms of four rows' sums, each from +0 in
// ascending k: the rows' entries are v/c at offsets 0, d1, d2 and d3.
// (One slice and three offsets keep the loop's indices in registers
// where four slices would not.)
func dot4(v []float64, c []int, x Vector, n, d1, d2, d3 int) (s0, s1, s2, s3 float64) {
	c = c[:len(v)]
	for k := 0; k < n; k++ {
		s0 += v[k] * x[c[k]]
		s1 += v[k+d1] * x[c[k+d1]]
		s2 += v[k+d2] * x[c[k+d2]]
		s3 += v[k+d3] * x[c[k+d3]]
	}
	return s0, s1, s2, s3
}

// addDot returns s + Σ v[k]·x[c[k]], adding in ascending k.
func addDot(s float64, v []float64, c []int, x Vector) float64 {
	c = c[:len(v)]
	for k, a := range v {
		s += a * x[c[k]]
	}
	return s
}

// Diagonal returns the main diagonal as a vector (Jacobi preconditioning
// and the Jacobi solver itself need it).
func (m *CSR) Diagonal() Vector { return m.DiagonalInto(nil) }

// DiagonalInto stores the main diagonal into d, allocating only when d is
// nil.  It walks each row once (columns are sorted, so the scan stops at
// the diagonal) instead of binary-searching per element; the iterative
// solver workspaces use it to refresh their cached diagonal without
// allocating.
func (m *CSR) DiagonalInto(d Vector) Vector {
	if d == nil {
		d = NewVector(m.N)
	}
	if len(d) != m.N {
		panic(fmt.Errorf("%w: CSR.DiagonalInto order %d into %d", ErrDimension, m.N, len(d)))
	}
	for i := 0; i < m.N; i++ {
		d[i] = 0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if j > i {
				break
			}
			if j == i {
				d[i] = m.Val[k]
				break
			}
		}
	}
	return d
}

// Bandwidth returns the maximum |i-j| over stored non-zeros.
func (m *CSR) Bandwidth() int {
	var w int
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d := i - m.ColIdx[k]
			if d < 0 {
				d = -d
			}
			if d > w {
				w = d
			}
		}
	}
	return w
}

// RowColumns returns the column indices of row i (shared storage; callers
// must not modify).  The NAVM layer uses this to discover which remote
// windows a row's update touches — the "irregular communication pattern".
func (m *CSR) RowColumns(i int) []int {
	return m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]]
}
