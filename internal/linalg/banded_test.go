package linalg

import (
	"fmt"
	"math"
)

// Banded and CSR.ToBanded are the storage and solver the cholesky and
// cholesky-rcm backends ran before a band became an envelope with a
// uniform profile, kept verbatim as the oracle of the band plans: a
// band plan must match them in factor bits, solution bits and flops.
//
// Banded is a symmetric positive-definite matrix stored in lower banded
// form: element (i,j) with 0 <= i-j <= Bandwidth is kept at band[i][i-j].
// This is the classical storage scheme of 1980s finite element codes; the
// sequential banded Cholesky solver below is the baseline the FEM-2 paper's
// parallel methods are compared against.
type Banded struct {
	N         int
	Bandwidth int // number of sub-diagonals stored (half-bandwidth)
	band      []float64
}

// NewBanded returns a zero symmetric banded matrix of order n with the
// given half-bandwidth.
func NewBanded(n, bandwidth int) *Banded {
	if n < 0 || bandwidth < 0 {
		panic(fmt.Errorf("%w: NewBanded n=%d bw=%d", ErrDimension, n, bandwidth))
	}
	if bandwidth >= n && n > 0 {
		bandwidth = n - 1
	}
	return &Banded{N: n, Bandwidth: bandwidth, band: make([]float64, n*(bandwidth+1))}
}

// At returns element (i,j), exploiting symmetry; outside the band it is 0.
func (b *Banded) At(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	if i-j > b.Bandwidth {
		return 0
	}
	return b.band[i*(b.Bandwidth+1)+(i-j)]
}

// Set assigns element (i,j) (and by symmetry (j,i)).  Setting outside the
// band panics: the mesh numbering determines the bandwidth up front.
func (b *Banded) Set(i, j int, v float64) {
	if i < j {
		i, j = j, i
	}
	if i-j > b.Bandwidth {
		panic(fmt.Errorf("linalg: Banded.Set(%d,%d) outside bandwidth %d", i, j, b.Bandwidth))
	}
	b.band[i*(b.Bandwidth+1)+(i-j)] = v
}

// AddAt adds v to element (i,j); the assembly primitive.
func (b *Banded) AddAt(i, j int, v float64) {
	if i < j {
		i, j = j, i
	}
	if i-j > b.Bandwidth {
		panic(fmt.Errorf("linalg: Banded.AddAt(%d,%d) outside bandwidth %d", i, j, b.Bandwidth))
	}
	b.band[i*(b.Bandwidth+1)+(i-j)] += v
}

// Clone returns an independent copy.
func (b *Banded) Clone() *Banded {
	out := NewBanded(b.N, b.Bandwidth)
	copy(out.band, b.band)
	return out
}

// MulVec computes out = B*x, allocating out when nil.
func (b *Banded) MulVec(x, out Vector, st *Stats) Vector {
	if len(x) != b.N {
		panic(fmt.Errorf("%w: Banded.MulVec order %d by %d", ErrDimension, b.N, len(x)))
	}
	if out == nil {
		out = NewVector(b.N)
	} else {
		out.Fill(0)
	}
	var flops int64
	for i := 0; i < b.N; i++ {
		lo := i - b.Bandwidth
		if lo < 0 {
			lo = 0
		}
		// Diagonal and sub-diagonal part, applying symmetry for the
		// super-diagonal contribution.
		for j := lo; j < i; j++ {
			v := b.band[i*(b.Bandwidth+1)+(i-j)]
			if v == 0 {
				continue
			}
			out[i] += v * x[j]
			out[j] += v * x[i]
			flops += 4
		}
		out[i] += b.band[i*(b.Bandwidth+1)] * x[i]
		flops += 2
	}
	st.addFlops(flops)
	return out
}

// ToDense expands the banded matrix to dense form (tests only; O(n²)).
func (b *Banded) ToDense() *Dense {
	d := NewDense(b.N, b.N)
	for i := 0; i < b.N; i++ {
		for j := 0; j < b.N; j++ {
			d.Set(i, j, b.At(i, j))
		}
	}
	return d
}

// CholeskyFactor computes the banded Cholesky factor L with B = L*Lᵀ,
// returned in the same banded layout.  It fails if B is not positive
// definite.  Flop counts are recorded in st.
func (b *Banded) CholeskyFactor(st *Stats) (*Banded, error) {
	l := b.Clone()
	if err := l.CholeskyFactorInPlace(st); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyFactorInPlace overwrites the receiver with its Cholesky
// factor — the allocation-free form DirectPlan refactors through; the
// arithmetic is identical to CholeskyFactor.  A pivot that is not
// positive, NaN included, fails it with the flops spent so far in st.
func (b *Banded) CholeskyFactorInPlace(st *Stats) error {
	l := b
	w := l.Bandwidth
	var flops int64
	for j := 0; j < l.N; j++ {
		// Diagonal.
		s := l.At(j, j)
		lo := j - w
		if lo < 0 {
			lo = 0
		}
		for k := lo; k < j; k++ {
			v := l.At(j, k)
			s -= v * v
			flops += 2
		}
		if !(s > 0) {
			return notPositiveDefinite(st, flops, j, s)
		}
		d := math.Sqrt(s)
		flops++
		l.Set(j, j, d)
		// Column below the diagonal, within the band.
		hi := j + w
		if hi >= l.N {
			hi = l.N - 1
		}
		for i := j + 1; i <= hi; i++ {
			s := l.At(i, j)
			klo := i - w
			if klo < lo {
				klo = lo
			}
			if klo < 0 {
				klo = 0
			}
			for k := klo; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
				flops += 2
			}
			l.Set(i, j, s/d)
			flops++
		}
	}
	st.addFlops(flops)
	return nil
}

// CholeskySolve solves B*x = rhs given the factor L from CholeskyFactor,
// by forward then backward substitution.
func (l *Banded) CholeskySolve(rhs Vector, st *Stats) Vector {
	return l.CholeskySolveInto(rhs, nil, st)
}

// CholeskySolveInto is CholeskySolve writing into out (allocated when
// nil).  out may alias rhs, solving in place — the repeated-solve paths
// (condensation's one solve per boundary dof) reuse one buffer.
func (l *Banded) CholeskySolveInto(rhs, out Vector, st *Stats) Vector {
	if len(rhs) != l.N {
		panic(fmt.Errorf("%w: CholeskySolve order %d with rhs %d", ErrDimension, l.N, len(rhs)))
	}
	w := l.Bandwidth
	y := out
	if y == nil {
		y = NewVector(l.N)
	}
	if len(y) != l.N {
		panic(fmt.Errorf("%w: CholeskySolveInto order %d into %d", ErrDimension, l.N, len(y)))
	}
	if l.N > 0 && &y[0] != &rhs[0] {
		copy(y, rhs)
	}
	var flops int64
	// Forward: L*y = rhs.
	for i := 0; i < l.N; i++ {
		lo := i - w
		if lo < 0 {
			lo = 0
		}
		s := y[i]
		for k := lo; k < i; k++ {
			s -= l.At(i, k) * y[k]
			flops += 2
		}
		y[i] = s / l.At(i, i)
		flops++
	}
	// Backward: Lᵀ*x = y.
	for i := l.N - 1; i >= 0; i-- {
		hi := i + w
		if hi >= l.N {
			hi = l.N - 1
		}
		s := y[i]
		for k := i + 1; k <= hi; k++ {
			s -= l.At(k, i) * y[k]
			flops += 2
		}
		y[i] = s / l.At(i, i)
		flops++
	}
	st.addFlops(flops)
	return y
}

// CholeskySolveMatrix solves B·X = C column by column given the factor L
// from CholeskyFactor, reusing one column buffer across all right-hand
// sides.  Substructure condensation solves each interior block against
// one right-hand side per boundary dof.
func (l *Banded) CholeskySolveMatrix(c *Dense, st *Stats) *Dense {
	if c.Rows != l.N {
		panic(fmt.Errorf("%w: CholeskySolveMatrix order %d with %d rows", ErrDimension, l.N, c.Rows))
	}
	out := NewDense(l.N, c.Cols)
	col := NewVector(l.N)
	for j := 0; j < c.Cols; j++ {
		for i := 0; i < l.N; i++ {
			col[i] = c.At(i, j)
		}
		l.CholeskySolveInto(col, col, st)
		for i := 0; i < l.N; i++ {
			out.Set(i, j, col[i])
		}
	}
	return out
}

// SolveCholesky factors and solves in one call.
func (b *Banded) SolveCholesky(rhs Vector, st *Stats) (Vector, error) {
	l, err := b.CholeskyFactor(st)
	if err != nil {
		return nil, err
	}
	return l.CholeskySolve(rhs, st), nil
}

// ToBanded converts to symmetric banded storage using the matrix's own
// bandwidth, for handing to the sequential Cholesky baseline.
func (m *CSR) ToBanded() *Banded {
	b := NewBanded(m.N, m.Bandwidth())
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if j <= i {
				b.Set(i, j, m.Val[k])
			}
		}
	}
	return b
}
