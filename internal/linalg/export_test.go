package linalg

import (
	"fmt"
	"slices"
	"testing"
)

// CheckEnvelopeKernel runs the kernel-against-oracle comparison of
// envelope_test.go, one subtest per kernel, on a's values laid out as the
// cholesky-env backend lays them out (RCM order, envelope storage), for
// the external test package — the one that can import the mesh
// generators.  It reports the envelope's stored entry count.
func CheckEnvelopeKernel(t *testing.T, a *CSR, rhs Vector) int {
	t.Helper()
	plan, err := NewDirectPlan(a, PlanOpts{Ordering: OrderRCM, Storage: StorageEnvelope})
	if err != nil {
		t.Fatal(err)
	}
	loadPlan(plan, a)
	forEachKernel(t, func(t *testing.T, k envelopeKernel) {
		if err := checkEnvelopeKernel(t, k, plan.env, PermuteVector(rhs, plan.perm)); err != nil {
			t.Fatal(err)
		}
	})
	return plan.env.NNZ()
}

// HostBodies is hostBodies of envelope_test.go, for the external test
// package's log.
var HostBodies = hostBodies

// CheckBandPlan is checkBandPlan of factor_test.go — a's band plans in
// natural and RCM order against the Banded oracle — for the external
// test package.
var CheckBandPlan = checkBandPlan

// SolveBody returns a solve of p's factored envelope by the named body
// of CholeskySolveInto ("go" or "avx2"), from rhs permuted into p's
// order into out, or nil when the host cannot run that body: the handle
// BenchmarkEnvelopeSolve times each body by.
func SolveBody(p *DirectPlan, name string, rhs Vector) func(out Vector) {
	prhs := rhs
	if p.perm != nil {
		prhs = PermuteVector(rhs, p.perm)
	}
	for _, b := range solveBodies {
		if b.name == name && b.runs() {
			return func(out Vector) { b.solve(p.env, prhs, out, nil) }
		}
	}
	return nil
}

// FactorBody returns a refactorisation of p from a's values, as Refactor
// does it, by the named kernel of CholeskyFactorInPlace ("go" for the
// pair kernel, "avx2" and "avx512" for the four- and eight-row panel
// kernels), or nil when the host cannot run that kernel: the handle
// BenchmarkEnvelopeFactor times each kernel by.
func FactorBody(p *DirectPlan, name string, a *CSR) func() error {
	k := envelopeKernels[slices.Index([]string{"go", "avx2", "avx512"}, name)]
	if !k.runs {
		return nil
	}
	return func() error {
		loadPlan(p, a)
		return k.factor(p.env, nil)
	}
}

// IsSymmetric reports whether the matrix equals its transpose within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			d := m.Val[k] - m.At(j, i)
			if d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}

// ToDense expands to dense form (tests only).
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.N, m.N)
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
	return d
}

// IsSymmetric reports whether |m_ij - m_ji| <= tol for all i,j.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			d := m.At(i, j) - m.At(j, i)
			if d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}

// DenseFromRows builds a matrix from row slices, which must all share one
// length.
func DenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Errorf("%w: DenseFromRows row %d has %d cols, want %d", ErrDimension, i, len(r), m.Cols))
		}
		copy(m.data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// First returns the first stored column of row i.
func (e *Envelope) First(i int) int { return e.first[i] }

// At returns element (i,j), exploiting symmetry; outside the envelope
// it is 0.
func (e *Envelope) At(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	if j < e.first[i] {
		return 0
	}
	return e.env[e.ptr[i]+j-e.first[i]]
}

// Set assigns element (i,j) (and by symmetry (j,i)).  Setting outside
// the envelope panics: the profile is fixed at construction.
func (e *Envelope) Set(i, j int, v float64) {
	if i < j {
		i, j = j, i
	}
	if j < e.first[i] {
		panic(fmt.Errorf("linalg: Envelope.Set(%d,%d) outside profile (row starts at %d)", i, j, e.first[i]))
	}
	e.env[e.ptr[i]+j-e.first[i]] = v
}

// NNZ returns the number of stored entries the pattern describes.
func (p *Pattern) NNZ() int { return len(p.ColIdx) }

// RowNNZ returns the number of stored entries in row i.
func (p *Pattern) RowNNZ(i int) int { return p.RowPtr[i+1] - p.RowPtr[i] }

// PermuteVector gathers v into the new ordering: out[i] = v[perm[i]].
func PermuteVector(v Vector, perm []int) Vector {
	out := NewVector(len(perm))
	for i, oldI := range perm {
		out[i] = v[oldI]
	}
	return out
}

// UnpermuteVector scatters a solution back to the original ordering:
// out[perm[i]] = v[i].
func UnpermuteVector(v Vector, perm []int) Vector {
	out := NewVector(len(perm))
	for i, oldI := range perm {
		out[oldI] = v[i]
	}
	return out
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

// HasBackend reports whether name is in the table ("" selects the
// default and is always valid).
func HasBackend(name string) bool {
	_, ok := lookup(name)
	return ok
}

// HasPrecond reports whether name is a registered preconditioner ("" and
// "none" select no preconditioning and are always valid).
func HasPrecond(name string) bool {
	if name == "" || name == "none" {
		return true
	}
	_, ok := precondFactories[name]
	return ok
}
