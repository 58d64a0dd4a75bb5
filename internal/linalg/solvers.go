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
	// a method whose row says it takes one (cg) uses it; the others
	// reject it.
	Precond string
	// OnIteration, when non-nil, is invoked after each iteration with
	// the iteration index and current residual norm.  The experiment
	// harness uses it to trace convergence histories.
	OnIteration func(iter int, resid float64)
}

// MaxIterCeiling bounds every default iteration budget: IterDefaults
// clamps to it, so a huge system cannot turn a mistyped solve into an
// unbounded loop.
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

// IterWork holds the scratch vectors of the iterative kernels — the
// system diagonal, iterates, residual, and direction buffers — so
// repeated solves of same-order systems reuse storage instead of
// reallocating it.  Method.Solve draws these from a pool; a nil
// *IterWork is valid and simply allocates fresh buffers.  The kernels
// refresh the cached diagonal from the matrix on every invocation
// (DiagonalInto, one row walk), so a workspace never goes stale when a
// reused assembly rewrites the matrix values in place.
type IterWork struct {
	diag, x, x2, r, z, p, ap Vector
	order                    [1][]int
}

// natural returns natural-order SOR's classes: one class, every row of
// n ascending.
func (ws *IterWork) natural(n int) [][]int {
	rows := ws.order[0][:0]
	for i := range n {
		rows = append(rows, i)
	}
	ws.order[0] = rows
	return ws.order[:]
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

// CG is the (optionally preconditioned) conjugate gradient kernel for
// symmetric positive definite A — the "solution of a particular system
// of simultaneous equations" workload at the bottom of the paper's
// parallelism hierarchy.  With a nil preconditioner the iteration is the
// classical CG recurrence; with one, z = M⁻¹r replaces r in the
// direction updates (only the sequential backend passes one, and its
// work is not priced on bl's hook).  Each inner product is a reduction
// every block waits for, and the product reads the direction's halo.  It
// is the cg row's Kernel, so it ignores the row classes; it returns the
// solution, the iteration count, and the final relative residual.
func CG(ctx context.Context, a *CSR, b Vector, m Preconditioner, _ [][]int, opts IterOpts, bl Blocks, st *Stats, ws *IterWork) (Vector, int, float64, error) {
	n := a.N
	if len(b) != n {
		panic(fmt.Errorf("%w: CG order %d with rhs %d", ErrDimension, n, len(b)))
	}
	if ws == nil {
		ws = &IterWork{}
	}
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

	bnorm := math.Sqrt(bl.Dot(b, b, st))
	if bnorm == 0 {
		return x, 0, 0, nil
	}
	bl.barrier()
	rz := bl.Dot(r, z, st)
	bl.barrier()
	resid := math.Inf(1)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := CheckCancel(ctx, iter); err != nil {
			return x, iter - 1, resid, err
		}
		bl.halo()
		bl.MulVec(a, p, ap, st)
		bl.barrier()
		pap := bl.Dot(p, ap, st)
		bl.barrier()
		if pap <= 0 {
			return nil, iter, resid, fmt.Errorf("linalg: CG breakdown, pᵀAp = %g (matrix not SPD?)", pap)
		}
		alpha := rz / pap
		bl.Axpy(alpha, p, x, st)
		bl.Axpy(-alpha, ap, r, st)
		var rzNew float64
		if m == nil {
			rzNew = bl.Dot(r, r, st)
			resid = math.Sqrt(rzNew) / bnorm
		} else {
			m.Apply(r, z, st)
			rzNew = bl.Dot(r, z, st)
			resid = math.Sqrt(bl.Dot(r, r, st)) / bnorm
		}
		bl.barrier()
		if opts.OnIteration != nil {
			opts.OnIteration(iter, resid)
		}
		if st != nil {
			st.Iterations++
		}
		if resid <= opts.Tol {
			return x, iter, resid, nil
		}
		if iter == opts.MaxIter {
			break
		}
		beta := rzNew / rz
		for w, lo := range bl.Lo {
			hi := bl.Hi[w]
			for i := lo; i < hi; i++ {
				p[i] = z[i] + beta*p[i]
			}
			bl.work(w, int64(2*(hi-lo)), st)
		}
		bl.barrier()
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

// diagonal returns A's diagonal in ws, or an error naming the first zero
// entry: Jacobi and SOR divide by it.
func diagonal(method string, a *CSR, ws *IterWork) (Vector, error) {
	ws.diag = grow(ws.diag, a.N)
	d := a.DiagonalInto(ws.diag)
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("linalg: %s zero diagonal at %d", method, i)
		}
	}
	return d, nil
}

// stationary iterates a stationary method (Jacobi, SOR) from x until the
// relative residual meets opts.Tol: each iteration is the method's sweep,
// which returns the new iterate, then the residual check, a reduction
// every block waits for.  The returned solution is detached from the
// workspace with a single Clone at each exit.
func stationary(ctx context.Context, backend string, a *CSR, b Vector, opts IterOpts, bl Blocks, st *Stats, ws *IterWork, x Vector, sweep func(x Vector) Vector) (Vector, int, float64, error) {
	bnorm := math.Sqrt(bl.Dot(b, b, st))
	if bnorm == 0 {
		return x.Clone(), 0, 0, nil
	}
	ws.r = grow(ws.r, a.N)
	r := ws.r
	resid := math.Inf(1)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := CheckCancel(ctx, iter); err != nil {
			return x.Clone(), iter - 1, resid, err
		}
		x = sweep(x)
		bl.residual(a, x, b, r, st)
		resid = math.Sqrt(bl.Dot(r, r, st)) / bnorm
		bl.barrier()
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
	return x.Clone(), opts.MaxIter, resid, &ConvergenceError{Backend: backend, Iterations: opts.MaxIter, Residual: resid}
}

// Jacobi is the Jacobi iteration kernel.  A must have non-zero diagonal;
// convergence requires A (after constraint application) to be diagonally
// dominant enough, which the FEM systems here are for modest meshes.
// Jacobi is the most naturally parallel method — every component update
// is independent — which is why the FEM-1/FEM-2 literature leaned on it:
// a sweep reads the halo once, and the residual check is the only
// reduction.  It is the jacobi row's Kernel and ignores m and the row
// classes.
func Jacobi(ctx context.Context, a *CSR, b Vector, _ Preconditioner, _ [][]int, opts IterOpts, bl Blocks, st *Stats, ws *IterWork) (Vector, int, float64, error) {
	n := a.N
	if len(b) != n {
		panic(fmt.Errorf("%w: Jacobi order %d with rhs %d", ErrDimension, n, len(b)))
	}
	if ws == nil {
		ws = &IterWork{}
	}
	d, err := diagonal("Jacobi", a, ws)
	if err != nil {
		return nil, 0, 0, err
	}
	// The iterate ping-pongs between two workspace buffers.
	ws.x, ws.x2 = grow(ws.x, n), grow(ws.x2, n)
	xNew := ws.x2
	return stationary(ctx, BackendJacobi, a, b, opts, bl, st, ws, ws.x, func(x Vector) Vector {
		// xNew_i = (b_i - sum_{j≠i} a_ij x_j) / a_ii
		bl.halo()
		for w, lo := range bl.Lo {
			var flops int64
			for i := lo; i < bl.Hi[w]; i++ {
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
			bl.work(w, flops, st)
		}
		bl.barrier()
		x, xNew = xNew, x
		return x
	})
}

// SOR is the successive over-relaxation kernel with factor opts.Omega
// (ω=1 gives Gauss-Seidel).  It sweeps the rows class by class, each
// class in ascending order, reading the halo before each class.
// Natural-order SOR, which nil classes select, is one class holding every
// row.  With a colouring's classes (Coloring.Rows) no two rows of one
// class are coupled, so a class's blocks could update at once: the
// multi-colour SOR Adams analysed for the Finite Element Machine, which
// the NAVM layer runs in parallel.  It is the sor row's Kernel and
// ignores m.
func SOR(ctx context.Context, a *CSR, b Vector, _ Preconditioner, classes [][]int, opts IterOpts, bl Blocks, st *Stats, ws *IterWork) (Vector, int, float64, error) {
	n := a.N
	if len(b) != n {
		panic(fmt.Errorf("%w: SOR order %d with rhs %d", ErrDimension, n, len(b)))
	}
	omega := opts.Omega
	if omega <= 0 || omega >= 2 {
		return nil, 0, 0, fmt.Errorf("linalg: SOR relaxation factor %g outside (0,2)", omega)
	}
	if ws == nil {
		ws = &IterWork{}
	}
	d, err := diagonal("SOR", a, ws)
	if err != nil {
		return nil, 0, 0, err
	}
	if classes == nil {
		classes = ws.natural(n)
	}
	ws.x = grow(ws.x, n)
	return stationary(ctx, BackendSOR, a, b, opts, bl, st, ws, ws.x, func(x Vector) Vector {
		for _, rows := range classes {
			bl.halo()
			k := 0 // rows ascend, so each block's rows follow the last block's
			for w, hi := range bl.Hi {
				var flops int64
				for ; k < len(rows) && rows[k] < hi; k++ {
					i := rows[k]
					s := b[i]
					for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
						j := a.ColIdx[p]
						if j != i {
							s -= a.Val[p] * x[j]
						}
					}
					x[i] = (1-omega)*x[i] + omega*s/d[i]
					flops += int64(2*a.RowNNZ(i) + 4)
				}
				bl.work(w, flops, st)
			}
			bl.barrier()
		}
		return x
	})
}

// Residual computes ‖b - A*x‖₂ for verification, leaving b - A*x in r
// (allocated when nil).
func Residual(a *CSR, x, b, r Vector, st *Stats) float64 {
	r = a.MulVec(x, r, st)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	st.addFlops(int64(len(r)))
	return Norm2(r, st)
}
