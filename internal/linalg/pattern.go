package linalg

import (
	"fmt"
	"math"
	"slices"
)

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
// coordinates, collapsing duplicates, and writes the scatter map into the
// caller's scatter, one slot per coordinate.
//
// A slot the caller has set negative is a hole: its coordinate is not
// read and the slot is left as it is.  Every other slot is overwritten
// with the flat index into a pattern-ordered value array (CSR Val) that
// its coordinate lands on.  Duplicate coordinates share a flat index, so
// a numeric phase that walks the inputs in order and adds
// Val[scatter[k]] += v reproduces duplicate summation in exactly the
// input order.  Holes let a caller lay its coordinates out as its own
// scatter table is laid out and have the map written where it is kept:
// fem.Workspace's per-element maps hold -1 for a pair with a fixed dof.
//
// The coordinates are grouped through one buffer of int32 coordinate
// indices, a counting sort by row.  Each row's distinct columns, found
// through a per-column slot table of order n, are then sorted alone, and
// every coordinate of the row is given its column's slot.  The same
// buffer then collects the distinct columns, so ColIdx is allocated at
// its exact length.  Construction is O(m + nnz log r + n) for m
// coordinates, nnz distinct entries and at most r distinct columns in a
// row.  n and the coordinate count must fit in an int32.
//
// Every coordinate is represented in the pattern, including those whose
// values later sum to zero: the pattern is a function of the topology
// alone, which is what makes it sound to reuse across re-assemblies.
func NewPattern(n int, rows, cols, scatter []int32) (*Pattern, error) {
	if len(rows) != len(cols) {
		return nil, fmt.Errorf("%w: pattern rows %d vs cols %d", ErrDimension, len(rows), len(cols))
	}
	if len(scatter) != len(rows) {
		return nil, fmt.Errorf("%w: pattern scatter %d vs coordinates %d", ErrDimension, len(scatter), len(rows))
	}
	if err := fitsInt32(n, len(rows)); err != nil {
		return nil, err
	}
	// cnt[r+1] counts row r's coordinates, then cnt[r] is where row r
	// starts in order; placing the coordinates moves cnt[r] to row r's end.
	cnt := make([]int, n+1)
	for k, s := range scatter {
		if s < 0 {
			continue
		}
		r, c := rows[k], cols[k]
		if r < 0 || int(r) >= n || c < 0 || int(c) >= n {
			return nil, outside(int(r), int(c), n)
		}
		cnt[r+1]++
	}
	widest := 0
	for r := 0; r < n; r++ {
		widest = max(widest, cnt[r+1])
		cnt[r+1] += cnt[r]
	}
	order := make([]int32, cnt[n])
	for k, s := range scatter {
		if s >= 0 {
			r := rows[k]
			order[cnt[r]] = int32(k)
			cnt[r]++
		}
	}
	// Collapse each row to its distinct columns, sort those, and give
	// each coordinate its column's slot.  slot[c] is where column c sits
	// in the row being built; a value below the row's first slot is an
	// earlier row's, so it marks a column the row has not met yet.  The
	// distinct columns are then written to the front of order, never
	// past the end of the row just read, and cnt becomes RowPtr as it
	// goes.
	slot := make([]int32, n)
	for c := range slot {
		slot[c] = -1
	}
	distinct := make([]int32, 0, min(widest, n))
	nnz, lo := 0, 0
	for r := 0; r < n; r++ {
		hi := cnt[r]
		cnt[r] = nnz
		row := order[lo:hi]
		first := int32(nnz)
		distinct = distinct[:0]
		for _, k := range row {
			if c := cols[k]; slot[c] < first {
				slot[c] = first
				distinct = append(distinct, c)
			}
		}
		slices.Sort(distinct)
		for i, c := range distinct {
			slot[c] = first + int32(i)
		}
		for _, k := range row {
			scatter[k] = slot[cols[k]]
		}
		nnz += copy(order[nnz:], distinct)
		lo = hi
	}
	cnt[n] = nnz
	colIdx := make([]int, nnz)
	for i, c := range order[:nnz] {
		colIdx[i] = int(c)
	}
	return &Pattern{N: n, RowPtr: cnt, ColIdx: colIdx}, nil
}

// fitsInt32 refuses an order or a coordinate count NewPattern cannot
// index with int32s.
func fitsInt32(n, m int) error {
	if n < 0 || n > math.MaxInt32 || m > math.MaxInt32 {
		return fmt.Errorf("%w: pattern of order %d from %d coordinates does not fit in int32", ErrDimension, n, m)
	}
	return nil
}

// outside is the error for an entry (r, c) that is not in an n×n matrix.
func outside(r, c, n int) error {
	return fmt.Errorf("linalg: entry (%d,%d) outside order %d", r, c, n)
}

// NewCSR returns a CSR matrix over this pattern with a fresh zero value
// array.  RowPtr and ColIdx are shared with the pattern (and with every
// other CSR built from it); only Val is private to the returned matrix.
func (p *Pattern) NewCSR() *CSR {
	return &CSR{N: p.N, RowPtr: p.RowPtr, ColIdx: p.ColIdx, Val: make([]float64, len(p.ColIdx))}
}
