package linalg

import (
	"context"
	"fmt"
	"math"
)

// The iterative solvers as they were before the one blocked kernel per
// method (CG, Jacobi, SOR in solvers.go) replaced them, verbatim but for
// their names: the oracles of TestIterativeKernelsMatchOracles.  The
// kernels must match them in solution, iteration count and residual
// bits; their flop counts differ by the square roots these count (one
// per Norm2) and, for a CG out of budget, by the direction update of its
// last iteration, which the kernel skips.

// operator is anything that can apply itself to a vector: the iterative
// solvers work on CSR or Dense operands alike.
type operator interface {
	MulVec(x, out Vector, st *Stats) Vector
}

// oracleCG is the (optionally preconditioned) conjugate gradient kernel for
// symmetric positive definite A — the "solution of a particular system
// of simultaneous equations" workload at the bottom of the paper's
// parallelism hierarchy.  With a nil preconditioner the iteration is the
// classical CG recurrence; with one, z = M⁻¹r replaces r in the
// direction updates.  It returns the solution, the iteration count, and
// the final relative residual.
func oracleCG(ctx context.Context, a operator, b Vector, m Preconditioner, opts IterOpts, st *Stats, ws *IterWork) (Vector, int, float64, error) {
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
		if diverged(resid) {
			return x, iter, resid, &ConvergenceError{Backend: cgName(m), Iterations: iter, Residual: resid, Diverged: true}
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

// oracleJacobi is the Jacobi iteration kernel.  A must have non-zero diagonal;
// convergence requires A (after constraint application) to be diagonally
// dominant enough, which the FEM systems here are for modest meshes.
// Jacobi is the most naturally parallel method — every component update
// is independent — which is why the FEM-1/FEM-2 literature leaned on it.
func oracleJacobi(ctx context.Context, a *CSR, b Vector, opts IterOpts, st *Stats, ws *IterWork) (Vector, int, float64, error) {
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
		if diverged(resid) {
			return x.Clone(), iter, resid, &ConvergenceError{Backend: BackendJacobi, Iterations: iter, Residual: resid, Diverged: true}
		}
	}
	return x.Clone(), opts.MaxIter, resid, &ConvergenceError{Backend: BackendJacobi, Iterations: opts.MaxIter, Residual: resid}
}

// oracleSOR is the successive over-relaxation kernel with factor opts.Omega
// (ω=1 gives Gauss-Seidel).  Adams' contemporaneous ICASE work analysed
// multi-colour SOR for the Finite Element Machine; the sequential kernel
// here is the building block, and the NAVM layer runs it red/black in
// parallel.
func oracleSOR(ctx context.Context, a *CSR, b Vector, opts IterOpts, st *Stats, ws *IterWork) (Vector, int, float64, error) {
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
		if diverged(resid) {
			return x.Clone(), iter, resid, &ConvergenceError{Backend: BackendSOR, Iterations: iter, Residual: resid, Diverged: true}
		}
	}
	return x.Clone(), opts.MaxIter, resid, &ConvergenceError{Backend: BackendSOR, Iterations: opts.MaxIter, Residual: resid}
}

// oracleMultiColorSOR solves A*x = b by SOR with the update order given by the
// coloring: all rows of color 0, then color 1, and so on.  Every row
// within a color is independent, so each color sweep parallelises
// perfectly — the property the FEM machines were built to exploit.  The
// sequential implementation here is the reference; navm runs the colors
// in parallel with the same arithmetic.
func oracleMultiColorSOR(a *CSR, b Vector, c *Coloring, opts IterOpts, st *Stats) (Vector, int, error) {
	n := a.N
	if len(b) != n {
		panic(fmt.Errorf("%w: MultiColorSOR order %d with rhs %d", ErrDimension, n, len(b)))
	}
	if err := c.Validate(a); err != nil {
		return nil, 0, err
	}
	w := opts.Omega
	if w <= 0 || w >= 2 {
		return nil, 0, fmt.Errorf("linalg: SOR relaxation factor %g outside (0,2)", w)
	}
	d := a.Diagonal()
	for i, v := range d {
		if v == 0 {
			return nil, 0, fmt.Errorf("linalg: MultiColorSOR zero diagonal at %d", i)
		}
	}
	x := NewVector(n)
	bnorm := Norm2(b, st)
	if bnorm == 0 {
		return x, 0, nil
	}
	r := NewVector(n)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		var flops int64
		for _, rows := range c.Rows {
			for _, i := range rows {
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
		}
		st.addFlops(flops)
		a.MulVec(x, r, st)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		st.addFlops(int64(n))
		resid := Norm2(r, st) / bnorm
		if opts.OnIteration != nil {
			opts.OnIteration(iter, resid)
		}
		if st != nil {
			st.Iterations++
		}
		if resid <= opts.Tol {
			return x, iter, nil
		}
		if diverged(resid) {
			return x, iter, fmt.Errorf("%w: multi-colour SOR diverged at iteration %d", ErrNoConvergence, iter)
		}
	}
	return x, opts.MaxIter, fmt.Errorf("%w: multi-colour SOR after %d iterations", ErrNoConvergence, opts.MaxIter)
}
