package linalg

import "fmt"

// Pattern is the symbolic half of sparse assembly: the CSR sparsity
// pattern of a matrix, separated from its values.  Finite element
// assembly visits the same mesh topology once per load step, design
// iteration, or solver-comparison row, so the expensive part — sorting
// the scattered (row, col) contributions into CSR order — is computed
// once here and every numeric re-assembly becomes a branch-light
// scatter-add through a precomputed index map.
//
// RowPtr and ColIdx have exactly the CSR meaning; CSR matrices built by
// NewCSR share them (callers must treat them as immutable).
type Pattern struct {
	N      int
	RowPtr []int
	ColIdx []int
}

// NewPattern builds the sparsity pattern of an n×n matrix from entry
// coordinates, collapsing duplicates.  Instead of a comparison sort it
// runs a two-pass counting (radix) sort — stable by column, then stable
// by row — so construction is O(nnz + n).
//
// The second return value is the scatter map: scatter[k] is the flat
// index into a pattern-ordered value array (CSR Val) that coordinate k
// lands on.  Duplicate coordinates share a flat index, so a numeric
// phase that walks the inputs in order and adds Val[scatter[k]] += v
// reproduces duplicate summation in exactly the input order.
//
// Every coordinate is represented in the pattern, including those whose
// values later sum to zero: the pattern is a function of the topology
// alone, which is what makes it sound to reuse across re-assemblies.
func NewPattern(n int, rows, cols []int) (*Pattern, []int, error) {
	if len(rows) != len(cols) {
		return nil, nil, fmt.Errorf("%w: pattern rows %d vs cols %d", ErrDimension, len(rows), len(cols))
	}
	m := len(rows)
	for k := 0; k < m; k++ {
		if rows[k] < 0 || rows[k] >= n || cols[k] < 0 || cols[k] >= n {
			return nil, nil, fmt.Errorf("linalg: entry (%d,%d) outside order %d", rows[k], cols[k], n)
		}
	}
	// Pass 1: stable counting sort of entry indices by column.
	cnt := make([]int, n+1)
	for _, c := range cols {
		cnt[c+1]++
	}
	for c := 0; c < n; c++ {
		cnt[c+1] += cnt[c]
	}
	byCol := make([]int, m)
	for k := 0; k < m; k++ {
		c := cols[k]
		byCol[cnt[c]] = k
		cnt[c]++
	}
	// Pass 2: stable counting sort of the column-ordered indices by row,
	// yielding entries sorted by (row, col), ties in input order.
	for i := range cnt {
		cnt[i] = 0
	}
	for _, r := range rows {
		cnt[r+1]++
	}
	for r := 0; r < n; r++ {
		cnt[r+1] += cnt[r]
	}
	order := make([]int, m)
	for _, k := range byCol {
		r := rows[k]
		order[cnt[r]] = k
		cnt[r]++
	}
	// Collapse duplicates into the CSR pattern while recording where
	// each input coordinate scatters.
	p := &Pattern{N: n, RowPtr: make([]int, n+1)}
	scatter := make([]int, m)
	colIdx := make([]int, 0, m)
	prevRow, prevCol := -1, -1
	for _, k := range order {
		r, c := rows[k], cols[k]
		if r != prevRow || c != prevCol {
			colIdx = append(colIdx, c)
			p.RowPtr[r+1]++
			prevRow, prevCol = r, c
		}
		scatter[k] = len(colIdx) - 1
	}
	for i := 0; i < n; i++ {
		p.RowPtr[i+1] += p.RowPtr[i]
	}
	p.ColIdx = colIdx
	return p, scatter, nil
}

// NewCSR returns a CSR matrix over this pattern with a fresh zero value
// array.  RowPtr and ColIdx are shared with the pattern (and with every
// other CSR built from it); only Val is private to the returned matrix.
func (p *Pattern) NewCSR() *CSR {
	return &CSR{N: p.N, RowPtr: p.RowPtr, ColIdx: p.ColIdx, Val: make([]float64, len(p.ColIdx))}
}
