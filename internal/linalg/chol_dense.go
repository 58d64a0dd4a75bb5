package linalg

import (
	"fmt"
	"math"
)

// DenseChol is the Cholesky factorisation of a dense symmetric positive
// definite matrix, kept for repeated solves — substructure condensation
// solves K_ii against many right-hand sides (one per interface dof).
type DenseChol struct {
	n int
	l *Dense // lower triangle, including diagonal
}

// CholeskyDense factors an SPD dense matrix A = L·Lᵀ.
func CholeskyDense(a *Dense, st *Stats) (*DenseChol, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("%w: CholeskyDense %dx%d", ErrDimension, a.Rows, a.Cols)
	}
	l := NewDense(n, n)
	var flops int64
	for j := 0; j < n; j++ {
		s := a.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			s -= v * v
			flops += 2
		}
		if !(s > 0) {
			st.addFlops(flops)
			return nil, fmt.Errorf("linalg: dense matrix not positive definite at %d (pivot %g)", j, s)
		}
		d := math.Sqrt(s)
		flops++
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
				flops += 2
			}
			l.Set(i, j, s/d)
			flops++
		}
	}
	st.addFlops(flops)
	return &DenseChol{n: n, l: l}, nil
}

// Solve returns x with A·x = b.
func (c *DenseChol) Solve(b Vector, st *Stats) Vector {
	if len(b) != c.n {
		panic(fmt.Errorf("%w: DenseChol.Solve order %d with rhs %d", ErrDimension, c.n, len(b)))
	}
	y := b.Clone()
	var flops int64
	for i := 0; i < c.n; i++ {
		s := y[i]
		for k := 0; k < i; k++ {
			s -= c.l.At(i, k) * y[k]
			flops += 2
		}
		y[i] = s / c.l.At(i, i)
		flops++
	}
	for i := c.n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < c.n; k++ {
			s -= c.l.At(k, i) * y[k]
			flops += 2
		}
		y[i] = s / c.l.At(i, i)
		flops++
	}
	st.addFlops(flops)
	return y
}

// SolveMatrix solves A·X = B column by column.
func (c *DenseChol) SolveMatrix(b *Dense, st *Stats) *Dense {
	if b.Rows != c.n {
		panic(fmt.Errorf("%w: DenseChol.SolveMatrix order %d with %d rows", ErrDimension, c.n, b.Rows))
	}
	out := NewDense(c.n, b.Cols)
	col := NewVector(c.n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < c.n; i++ {
			col[i] = b.At(i, j)
		}
		x := c.Solve(col, st)
		for i := 0; i < c.n; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out
}
