package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/errs"
)

// ErrNoConvergence is the sentinel an iterative solver's error wraps when
// it exhausts its iteration budget before reaching the requested
// tolerance.  The concrete error is a *ConvergenceError carrying the
// final residual and iteration count.
var ErrNoConvergence = errors.New("linalg: iterative solver did not converge")

// ConvergenceError reports an exhausted iteration budget.  It wraps
// ErrNoConvergence (errors.Is matches) while carrying the state the
// solver stopped in, so callers can decide whether the partial answer is
// usable.
type ConvergenceError struct {
	// Backend names the solver that gave up.
	Backend string
	// Iterations is the budget that was exhausted.
	Iterations int
	// Residual is the relative residual ‖r‖/‖b‖ at the final iteration.
	Residual float64
}

// Error formats the failure with its final state.
func (e *ConvergenceError) Error() string {
	return fmt.Sprintf("%v: %s after %d iterations, residual %.3g",
		ErrNoConvergence, e.Backend, e.Iterations, e.Residual)
}

// Unwrap links the typed error to the ErrNoConvergence sentinel.
func (e *ConvergenceError) Unwrap() error { return ErrNoConvergence }

// IterOpts configures the iterative solvers.
type IterOpts struct {
	// Tol is the relative residual tolerance ‖r‖/‖b‖ at which to stop.
	Tol float64
	// MaxIter bounds the iteration count.
	MaxIter int
	// Omega is the SOR/SSOR relaxation factor (ignored by CG/Jacobi).
	Omega float64
	// Precond names the preconditioner an iterative backend should build
	// and apply ("" or "none" for unpreconditioned; see Preconds).  Only
	// the CG backend uses it; direct backends reject it.
	Precond string
	// OnIteration, when non-nil, is invoked after each iteration with
	// the iteration index and current residual norm.  The experiment
	// harness uses it to trace convergence histories.
	OnIteration func(iter int, resid float64)
}

// MaxIterCeiling bounds every iteration budget: DefaultIterOpts and the
// per-backend defaults clamp to it, so a huge system cannot turn a
// mistyped solve into an unbounded loop.
const MaxIterCeiling = 200_000

// clampIter applies the floor-200 / MaxIterCeiling bounds to an
// n-proportional iteration budget.
func clampIter(m int) int {
	if m < 200 {
		m = 200
	}
	if m > MaxIterCeiling {
		m = MaxIterCeiling
	}
	return m
}

// DefaultIterOpts returns the options used throughout the experiments:
// 1e-8 relative tolerance, an n-proportional iteration cap (bounded by
// MaxIterCeiling) and the classical ω=1.5 for SOR.
func DefaultIterOpts(n int) IterOpts {
	return IterOpts{Tol: 1e-8, MaxIter: clampIter(10 * n), Omega: 1.5}
}

// cancelCheckInterval is how many iterations pass between context polls
// inside the solver loops: frequent enough that a cancelled solve stops
// promptly, rare enough to stay off the per-iteration critical path.
const cancelCheckInterval = 16

// CheckCancel polls ctx on iteration 1 and every cancelCheckInterval
// iterations after it, converting a cancellation into the shared
// errs.ErrCancelled taxonomy (the context's own error stays in the chain
// for errors.Is).  The NAVM distributed solvers share it so sequential
// and parallel solves cancel identically.
func CheckCancel(ctx context.Context, iter int) error {
	if ctx == nil || iter%cancelCheckInterval != 1 {
		return nil
	}
	return errs.Cancelled(ctx)
}

// Operator is anything that can apply itself to a vector: the iterative
// solvers work on CSR or Dense operands alike.
type Operator interface {
	MulVec(x, out Vector, st *Stats) Vector
}

// IterWork holds the scratch vectors of the iterative kernels — the
// system diagonal, iterates, residual, and direction buffers — so
// repeated solves of same-order systems reuse storage instead of
// reallocating it.  The engine backends draw these from a pool; a nil
// *IterWork is valid and simply allocates fresh buffers.  The kernels
// refresh the cached diagonal from the matrix on every invocation
// (DiagonalInto, one row walk), so a workspace never goes stale when a
// reused assembly rewrites the matrix values in place.
type IterWork struct {
	diag, x, x2, r, z, p, ap Vector
}

// grow returns a zeroed length-n vector, reusing v's storage when it is
// large enough.
func grow(v Vector, n int) Vector {
	if cap(v) < n {
		return NewVector(n)
	}
	v = v[:n]
	for i := range v {
		v[i] = 0
	}
	return v
}

// cg is the (optionally preconditioned) conjugate gradient kernel for
// symmetric positive definite A — the "solution of a particular system
// of simultaneous equations" workload at the bottom of the paper's
// parallelism hierarchy.  With a nil preconditioner the iteration is the
// classical CG recurrence; with one, z = M⁻¹r replaces r in the
// direction updates.  It returns the solution, the iteration count, and
// the final relative residual.
func cg(ctx context.Context, a Operator, b Vector, m Preconditioner, opts IterOpts, st *Stats, ws *IterWork) (Vector, int, float64, error) {
	if ws == nil {
		ws = &IterWork{}
	}
	n := len(b)
	x := NewVector(n) // returned; never drawn from the workspace
	ws.r = grow(ws.r, n)
	r := ws.r
	copy(r, b)
	z := r
	if m != nil {
		ws.z = grow(ws.z, n)
		z = ws.z
		m.Apply(r, z, st)
	}
	ws.p = grow(ws.p, n)
	p := ws.p
	copy(p, z)
	ws.ap = grow(ws.ap, n)
	ap := ws.ap

	bnorm := Norm2(b, st)
	if bnorm == 0 {
		return x, 0, 0, nil
	}
	rz := Dot(r, z, st)
	resid := math.Inf(1)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := CheckCancel(ctx, iter); err != nil {
			return x, iter - 1, resid, err
		}
		a.MulVec(p, ap, st)
		pap := Dot(p, ap, st)
		if pap <= 0 {
			return nil, iter, resid, fmt.Errorf("linalg: CG breakdown, pᵀAp = %g (matrix not SPD?)", pap)
		}
		alpha := rz / pap
		Axpy(alpha, p, x, st)
		Axpy(-alpha, ap, r, st)
		var rzNew float64
		if m == nil {
			rzNew = Dot(r, r, st)
			resid = math.Sqrt(rzNew) / bnorm
		} else {
			m.Apply(r, z, st)
			rzNew = Dot(r, z, st)
			resid = math.Sqrt(Dot(r, r, st)) / bnorm
		}
		if opts.OnIteration != nil {
			opts.OnIteration(iter, resid)
		}
		if st != nil {
			st.Iterations++
		}
		if resid <= opts.Tol {
			return x, iter, resid, nil
		}
		beta := rzNew / rz
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		st.addFlops(int64(2 * n))
		rz = rzNew
	}
	return x, opts.MaxIter, resid, &ConvergenceError{Backend: cgName(m), Iterations: opts.MaxIter, Residual: resid}
}

// cgName labels the CG variant for errors and Info.
func cgName(m Preconditioner) string {
	if m == nil {
		return BackendCG
	}
	return BackendCG + "+" + m.Name()
}

// jacobi is the Jacobi iteration kernel.  A must have non-zero diagonal;
// convergence requires A (after constraint application) to be diagonally
// dominant enough, which the FEM systems here are for modest meshes.
// Jacobi is the most naturally parallel method — every component update
// is independent — which is why the FEM-1/FEM-2 literature leaned on it.
func jacobi(ctx context.Context, a *CSR, b Vector, opts IterOpts, st *Stats, ws *IterWork) (Vector, int, float64, error) {
	n := a.N
	if len(b) != n {
		panic(fmt.Errorf("%w: Jacobi order %d with rhs %d", ErrDimension, n, len(b)))
	}
	if ws == nil {
		ws = &IterWork{}
	}
	ws.diag = grow(ws.diag, n)
	d := a.DiagonalInto(ws.diag)
	for i, v := range d {
		if v == 0 {
			return nil, 0, 0, fmt.Errorf("linalg: Jacobi zero diagonal at %d", i)
		}
	}
	// The iterate ping-pongs between two workspace buffers, so the
	// returned solution is detached with a single Clone at each exit.
	ws.x = grow(ws.x, n)
	x := ws.x
	ws.x2 = grow(ws.x2, n)
	xNew := ws.x2
	bnorm := Norm2(b, st)
	if bnorm == 0 {
		return x.Clone(), 0, 0, nil
	}
	ws.r = grow(ws.r, n)
	r := ws.r
	resid := math.Inf(1)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := CheckCancel(ctx, iter); err != nil {
			return x.Clone(), iter - 1, resid, err
		}
		// xNew_i = (b_i - sum_{j≠i} a_ij x_j) / a_ii
		var flops int64
		for i := 0; i < n; i++ {
			s := b[i]
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				j := a.ColIdx[k]
				if j != i {
					s -= a.Val[k] * x[j]
				}
			}
			xNew[i] = s / d[i]
			flops += int64(2*a.RowNNZ(i) + 1)
		}
		st.addFlops(flops)
		x, xNew = xNew, x
		// Residual check.
		a.MulVec(x, r, st)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		st.addFlops(int64(n))
		resid = Norm2(r, st) / bnorm
		if opts.OnIteration != nil {
			opts.OnIteration(iter, resid)
		}
		if st != nil {
			st.Iterations++
		}
		if resid <= opts.Tol {
			return x.Clone(), iter, resid, nil
		}
	}
	return x.Clone(), opts.MaxIter, resid, &ConvergenceError{Backend: BackendJacobi, Iterations: opts.MaxIter, Residual: resid}
}

// sor is the successive over-relaxation kernel with factor opts.Omega
// (ω=1 gives Gauss-Seidel).  Adams' contemporaneous ICASE work analysed
// multi-colour SOR for the Finite Element Machine; the sequential kernel
// here is the building block, and the NAVM layer runs it red/black in
// parallel.
func sor(ctx context.Context, a *CSR, b Vector, opts IterOpts, st *Stats, ws *IterWork) (Vector, int, float64, error) {
	n := a.N
	if len(b) != n {
		panic(fmt.Errorf("%w: SOR order %d with rhs %d", ErrDimension, n, len(b)))
	}
	w := opts.Omega
	if w <= 0 || w >= 2 {
		return nil, 0, 0, fmt.Errorf("linalg: SOR relaxation factor %g outside (0,2)", w)
	}
	if ws == nil {
		ws = &IterWork{}
	}
	ws.diag = grow(ws.diag, n)
	d := a.DiagonalInto(ws.diag)
	for i, v := range d {
		if v == 0 {
			return nil, 0, 0, fmt.Errorf("linalg: SOR zero diagonal at %d", i)
		}
	}
	ws.x = grow(ws.x, n)
	x := ws.x
	bnorm := Norm2(b, st)
	if bnorm == 0 {
		return x.Clone(), 0, 0, nil
	}
	ws.r = grow(ws.r, n)
	r := ws.r
	resid := math.Inf(1)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := CheckCancel(ctx, iter); err != nil {
			return x.Clone(), iter - 1, resid, err
		}
		var flops int64
		for i := 0; i < n; i++ {
			s := b[i]
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				j := a.ColIdx[k]
				if j != i {
					s -= a.Val[k] * x[j]
				}
			}
			x[i] = (1-w)*x[i] + w*s/d[i]
			flops += int64(2*a.RowNNZ(i) + 4)
		}
		st.addFlops(flops)
		a.MulVec(x, r, st)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		st.addFlops(int64(n))
		resid = Norm2(r, st) / bnorm
		if opts.OnIteration != nil {
			opts.OnIteration(iter, resid)
		}
		if st != nil {
			st.Iterations++
		}
		if resid <= opts.Tol {
			return x.Clone(), iter, resid, nil
		}
	}
	return x.Clone(), opts.MaxIter, resid, &ConvergenceError{Backend: BackendSOR, Iterations: opts.MaxIter, Residual: resid}
}

// Residual computes ‖b - A*x‖₂ for verification, leaving b - A*x in r
// (allocated when nil).
func Residual(a Operator, x, b, r Vector, st *Stats) float64 {
	r = a.MulVec(x, r, st)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	st.addFlops(int64(len(r)))
	return Norm2(r, st)
}
