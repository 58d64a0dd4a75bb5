package linalg

import (
	"fmt"
	"sort"

	"repro/internal/errs"
)

// Preconditioner approximates A⁻¹ cheaply: Apply computes z = M⁻¹r for a
// preconditioning matrix M chosen so that M⁻¹A is better conditioned than
// A.  The CG backend wraps any Preconditioner built from the system
// matrix; both implementations here are symmetric positive definite, as
// preconditioned CG requires.
type Preconditioner interface {
	// Name is the registry name ("jacobi", "ssor").
	Name() string
	// Apply computes z = M⁻¹r.  r and z must have the operator's order
	// and may not alias.
	Apply(r, z Vector, st *Stats)
}

// The preconditioner registry names.
const (
	// PrecondJacobi is diagonal scaling: M = D.
	PrecondJacobi = "jacobi"
	// PrecondSSOR is the symmetric SOR preconditioner:
	// M = (D/ω + L)·(ω/(2-ω))·D⁻¹·(D/ω + Lᵀ).
	PrecondSSOR = "ssor"
)

// precondFactories maps names to constructors.  Registration is static:
// a preconditioner needs the assembled matrix, so the registry stores
// factories rather than instances.
var precondFactories = map[string]func(a *CSR, omega float64) (Preconditioner, error){
	PrecondJacobi: func(a *CSR, _ float64) (Preconditioner, error) { return NewJacobiPrecond(a) },
	PrecondSSOR:   func(a *CSR, omega float64) (Preconditioner, error) { return NewSSORPrecond(a, omega) },
}

// Preconds returns the registered preconditioner names, sorted.
func Preconds() []string {
	out := make([]string, 0, len(precondFactories))
	for name := range precondFactories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewPreconditioner builds the named preconditioner over a.  The empty
// name and "none" return nil (no preconditioning); unknown names are a
// usage error listing the registry.
func NewPreconditioner(name string, a *CSR, omega float64) (Preconditioner, error) {
	if name == "" || name == "none" {
		return nil, nil
	}
	f, ok := precondFactories[name]
	if !ok {
		return nil, errs.Usage("unknown preconditioner %q (have %v)", name, Preconds())
	}
	return f(a, omega)
}

// JacobiPrecond is diagonal scaling, M = D: the cheapest preconditioner,
// one divide per unknown per application.  On FEM stiffness matrices it
// mostly equilibrates element-size and material-stiffness variation.
type JacobiPrecond struct {
	invDiag Vector
}

// NewJacobiPrecond builds the diagonal preconditioner of a.
func NewJacobiPrecond(a *CSR) (*JacobiPrecond, error) {
	d := a.Diagonal()
	inv := NewVector(len(d))
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("linalg: jacobi preconditioner zero diagonal at %d", i)
		}
		inv[i] = 1 / v
	}
	return &JacobiPrecond{invDiag: inv}, nil
}

// Name returns the registry name.
func (*JacobiPrecond) Name() string { return PrecondJacobi }

// Apply computes z = D⁻¹ r.
func (p *JacobiPrecond) Apply(r, z Vector, st *Stats) {
	for i := range r {
		z[i] = r[i] * p.invDiag[i]
	}
	st.addFlops(int64(len(r)))
}

// SSORPrecond is the symmetric SOR preconditioner
// M = (D/ω + L)·(ω/(2-ω))·D⁻¹·(D/ω + Lᵀ), applied as one forward and one
// backward triangular sweep over the matrix — twice the work of a SpMV
// per application, repaid by a substantially reduced CG iteration count
// on stiff plates.
type SSORPrecond struct {
	a     *CSR
	diag  Vector
	omega float64
}

// NewSSORPrecond builds the SSOR preconditioner of a with relaxation
// factor omega in (0,2); omega == 0 selects the default 1.5.
func NewSSORPrecond(a *CSR, omega float64) (*SSORPrecond, error) {
	if omega == 0 {
		omega = 1.5
	}
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("linalg: SSOR relaxation factor %g outside (0,2)", omega)
	}
	d := a.Diagonal()
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("linalg: SSOR preconditioner zero diagonal at %d", i)
		}
	}
	return &SSORPrecond{a: a, diag: d, omega: omega}, nil
}

// Name returns the registry name.
func (*SSORPrecond) Name() string { return PrecondSSOR }

// Apply computes z = M⁻¹r by a forward sweep with (D/ω + L), a diagonal
// scaling, and a backward sweep with (D/ω + Lᵀ).  CSR rows keep their
// columns sorted, so each sweep splits a row at the diagonal in one pass.
func (p *SSORPrecond) Apply(r, z Vector, st *Stats) {
	a, d, w := p.a, p.diag, p.omega
	n := a.N
	// Forward: (D/ω + L) t = r, t stored in z.
	var flops int64
	for i := 0; i < n; i++ {
		s := r[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j >= i {
				break
			}
			s -= a.Val[k] * z[j]
			flops += 2
		}
		z[i] = s * w / d[i]
		flops += 2
	}
	// Scale: u = (2-ω)/ω · D t.
	for i := 0; i < n; i++ {
		z[i] *= (2 - w) / w * d[i]
		flops += 3
	}
	// Backward: (D/ω + Lᵀ) z = u.  Lᵀ is the strict upper triangle of
	// the symmetric A.
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for k := a.RowPtr[i+1] - 1; k >= a.RowPtr[i]; k-- {
			j := a.ColIdx[k]
			if j <= i {
				break
			}
			s -= a.Val[k] * z[j]
			flops += 2
		}
		z[i] = s * w / d[i]
		flops += 2
	}
	st.addFlops(flops)
}
