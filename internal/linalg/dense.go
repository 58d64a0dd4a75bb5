package linalg

import "fmt"

// Dense is a row-major dense matrix.  Element stiffness matrices and the
// small interface systems produced by substructure condensation are dense;
// the global FEM systems are stored banded or sparse.
type Dense struct {
	Rows, Cols int
	data       []float64
}

// NewDense returns a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Errorf("%w: NewDense %dx%d", ErrDimension, rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, data: make([]float64, rows*cols)}
}

// At returns element (i,j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.Cols+j] = v }

// AddAt adds v to element (i,j); the core assembly primitive.
func (m *Dense) AddAt(i, j int, v float64) { m.data[i*m.Cols+j] += v }

// Row returns a view of row i (shared storage).
func (m *Dense) Row(i int) Vector { return Vector(m.data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns an independent copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.data, m.data)
	return out
}

// MulVec computes out = M*x, allocating out when nil.
func (m *Dense) MulVec(x, out Vector, st *Stats) Vector {
	if len(x) != m.Cols {
		panic(fmt.Errorf("%w: Dense.MulVec %dx%d by %d", ErrDimension, m.Rows, m.Cols, len(x)))
	}
	if out == nil {
		out = NewVector(m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		out[i] = s
	}
	st.addFlops(int64(2 * m.Rows * m.Cols))
	return out
}

// Mul computes the product M*B.
func (m *Dense) Mul(b *Dense, st *Stats) *Dense {
	if m.Cols != b.Rows {
		panic(fmt.Errorf("%w: Dense.Mul %dx%d by %dx%d", ErrDimension, m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewDense(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.AddAt(i, j, a*b.At(k, j))
			}
		}
	}
	st.addFlops(int64(2 * m.Rows * m.Cols * b.Cols))
	return out
}

// Transpose returns Mᵀ.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// SolveGauss solves M*x = b by Gaussian elimination with partial pivoting,
// destroying neither operand.  Used for the small dense interface systems
// in substructure analysis.
func (m *Dense) SolveGauss(b Vector, st *Stats) (Vector, error) {
	n := m.Rows
	if m.Cols != n || len(b) != n {
		return nil, fmt.Errorf("%w: SolveGauss %dx%d with rhs %d", ErrDimension, m.Rows, m.Cols, len(b))
	}
	a := m.Clone()
	x := b.Clone()
	var flops int64
	for k := 0; k < n; k++ {
		// Partial pivot.
		p := k
		pv := a.At(k, k)
		if pv < 0 {
			pv = -pv
		}
		for i := k + 1; i < n; i++ {
			v := a.At(i, k)
			if v < 0 {
				v = -v
			}
			if v > pv {
				p, pv = i, v
			}
		}
		if pv == 0 {
			return nil, fmt.Errorf("linalg: singular matrix at pivot %d", k)
		}
		if p != k {
			for j := k; j < n; j++ {
				ak, ap := a.At(k, j), a.At(p, j)
				a.Set(k, j, ap)
				a.Set(p, j, ak)
			}
			x[k], x[p] = x[p], x[k]
		}
		for i := k + 1; i < n; i++ {
			f := a.At(i, k) / a.At(k, k)
			if f == 0 {
				continue
			}
			for j := k; j < n; j++ {
				a.AddAt(i, j, -f*a.At(k, j))
			}
			x[i] -= f * x[k]
			flops += int64(2*(n-k) + 3)
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * x[j]
		}
		x[i] = s / a.At(i, i)
		flops += int64(2*(n-i-1) + 1)
	}
	st.addFlops(flops)
	return x, nil
}
