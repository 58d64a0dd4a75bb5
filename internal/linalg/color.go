package linalg

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
