package linalg

import "fmt"

// Coloring is a partition of a matrix's rows into colors such that no two
// rows of one color are coupled by a non-zero off-diagonal entry.  Within
// a color, Gauss-Seidel/SOR updates are independent and can run fully in
// parallel — the multi-colour SOR scheme Adams analysed for the Finite
// Element Machine (and FEM-2's companion work, ref. [8] of the paper).
type Coloring struct {
	// ColorOf[i] is row i's color in [0, NumColors).
	ColorOf []int
	// NumColors is the number of colors used.
	NumColors int
	// Rows[c] lists the rows of color c, ascending: the classes SOR
	// sweeps in turn.
	Rows [][]int
}

// GreedyColoring colors the adjacency structure of a (structurally
// symmetric) sparse matrix with the first-fit greedy heuristic in natural
// row order.  Regular grid stencils get their classic colorings (2 for
// the 5-point stencil — red/black); irregular meshes get small color
// counts bounded by max degree + 1.
func GreedyColoring(a *CSR) *Coloring {
	c := &Coloring{ColorOf: make([]int, a.N)}
	for i := range c.ColorOf {
		c.ColorOf[i] = -1
	}
	// forbidden[k] == i marks color k as used by a neighbour of row i.
	forbidden := make([]int, 0)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j == i {
				continue
			}
			if cj := c.ColorOf[j]; cj >= 0 {
				for len(forbidden) <= cj {
					forbidden = append(forbidden, -1)
				}
				forbidden[cj] = i
			}
		}
		color := 0
		for color < len(forbidden) && forbidden[color] == i {
			color++
		}
		c.ColorOf[i] = color
		if color+1 > c.NumColors {
			c.NumColors = color + 1
		}
	}
	c.Rows = make([][]int, c.NumColors)
	for i, col := range c.ColorOf {
		c.Rows[col] = append(c.Rows[col], i)
	}
	return c
}

// Validate checks the coloring invariant — no off-diagonal non-zero
// joins two rows of one color — and that Rows lists exactly the rows of
// each color, ascending, as SOR sweeps them.
func (c *Coloring) Validate(a *CSR) error {
	if len(c.ColorOf) != a.N {
		return fmt.Errorf("%w: coloring of %d rows for order %d", ErrDimension, len(c.ColorOf), a.N)
	}
	listed := 0
	for col, rows := range c.Rows {
		for k, i := range rows {
			if i < 0 || i >= a.N || c.ColorOf[i] != col || (k > 0 && i <= rows[k-1]) {
				return fmt.Errorf("linalg: coloring lists row %d out of place in color %d", i, col)
			}
		}
		listed += len(rows)
	}
	if listed != a.N {
		return fmt.Errorf("linalg: coloring lists %d of %d rows", listed, a.N)
	}
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j != i && c.ColorOf[i] == c.ColorOf[j] {
				return fmt.Errorf("linalg: rows %d and %d coupled but share color %d", i, j, c.ColorOf[i])
			}
		}
	}
	return nil
}
