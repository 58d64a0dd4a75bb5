package fem

import (
	"context"
	"fmt"

	"repro/internal/errs"
	"repro/internal/linalg"
	"repro/internal/navm"
)

// SolveOpts selects and tunes the solution strategy for Solve — the one
// knob set for every way the paper solves a structure.  Exactly one
// execution path applies: Substructured > 0 partitions the model into
// that many vertical bands and condenses them (in parallel on RT when
// attached); otherwise Parallel > 0 runs the Backend's NAVM-distributed
// variant on that many simulated workers; otherwise the Backend runs
// sequentially, a direct one through the model's factor cache.
type SolveOpts struct {
	// Backend names the solver engine ("" selects the banded Cholesky
	// baseline, or cg for a distributed solve); see linalg.Backends for
	// the method table.
	Backend string
	// Precond names the preconditioner for iterative backends ("" for
	// none); see linalg.Preconds.
	Precond string
	// Parallel, when positive, solves with the backend's distributed
	// variant on that many simulated workers (see linalg.Distributed;
	// the direct backends have none).  Requires RT.
	Parallel int
	// Substructured, when positive, partitions the model into that many
	// vertical bands and condenses them, in parallel when RT is
	// attached.
	Substructured int
	// Tol is the iterative relative-residual tolerance (0 = 1e-8).
	Tol float64
	// MaxIter bounds iterative solvers.  Zero selects the backend's
	// default budget (clamped to linalg.MaxIterCeiling); an explicit
	// value is used as given.
	MaxIter int
	// Omega is the SOR/SSOR relaxation factor (0 = 1.5).
	Omega float64
	// RT is the simulated machine's runtime; required for Parallel,
	// optional (cost attribution only) for Substructured.
	RT *navm.Runtime
	// OnIteration, when non-nil, traces iterative convergence.
	OnIteration func(iter int, resid float64)
}

// method returns the row a sequential or distributed solve runs, or the
// error that refuses the solve for its options alone, whatever the model.
// Solve asks it before it reads the model, so a refused solve assembles
// nothing and moves no counter.
func (o SolveOpts) method() (linalg.Method, error) {
	if o.Parallel > 0 {
		if o.RT == nil {
			return linalg.Method{}, fmt.Errorf("fem: parallel solve needs an attached runtime (no parallel machine)")
		}
		return linalg.Distributed(o.Backend, o.Precond)
	}
	m, err := linalg.Backend(o.Backend)
	if err != nil {
		return m, err
	}
	return m, m.RejectPrecond(o.Precond)
}

// Solution is a solved load case: full displacement vector and the
// unified solver accounting.
type Solution struct {
	// U is the full displacement vector (zeros at fixed dofs).
	U linalg.Vector
	// Backend is the engine that produced U ("substructured" paths echo
	// the interface solver's requested backend).
	Backend string
	// Precond is the preconditioner applied, "" when none.
	Precond string
	// Iterations is 0 for direct solves.
	Iterations int
	// Residual is the relative residual ‖b-Kx‖/‖b‖ of the reduced
	// system (0 where not measured, e.g. substructured solves).
	Residual float64
	// Stats accumulates assembly and solver flops.
	Stats linalg.Stats
	// Refactored reports whether a direct solve computed a fresh
	// factorisation; false when the model's factor cache served a warm
	// factor, in which case the solve cost one triangular solve and
	// Stats carries no factorisation flops.  Iterative and substructured
	// paths never factor a cached plan and always report true.
	Refactored bool
	// Par carries the simulated-machine statistics of a distributed
	// solve; nil for sequential and substructured paths.
	Par *navm.SolveStats
}

// Solve assembles the model and solves it for one load set as SolveOpts
// directs — the AUVM "solve structure model/load set for displacements"
// operation, unified over sequential, NAVM-parallel, and substructured
// execution.  All three paths honour ctx: a cancelled solve returns an
// error wrapping errs.ErrCancelled.
//
// The assembly and the direct factors are kept on the model: the first
// solve builds a Workspace and a DirectPlan (a model that replaced another
// under the same name starts with that one's, see Model.AdoptAssembly),
// and every later solve redoes only what the model's edits require.  One
// walk over the model checks the topology, then compares every used
// node's coordinates and every element's kind and Material bit for bit
// with the record the matrix was assembled from: the symbolic phase is
// rebuilt when the topology changed, and the numeric scatter runs unless
// all values are identical.  The recording pass's token then stands for
// the values in K, so the factor cache reuses a factor computed from the
// same token without comparing them again, and compares them bit for bit
// otherwise.  The load vector, the reduced solution and the residual are
// the workspace's scratch, so the only vector a warm solve allocates is
// the returned U (none under SolveInto).  Results are bit-identical to
// solving a fresh copy of the model.
func Solve(ctx context.Context, m *Model, ls *LoadSet, opts SolveOpts) (*Solution, error) {
	return SolveInto(ctx, m, ls, opts, nil)
}

// SolveInto is Solve recycling dst, a solution its caller will not read
// again: the result is written over dst, and over dst.U when that has the
// model's dof count, and dst is returned — so a steady re-solve allocates
// nothing in proportion to the model.  A nil dst is Solve.  On an error
// dst's contents are unspecified, and a substructured solve returns a new
// Solution and leaves dst alone.
func SolveInto(ctx context.Context, m *Model, ls *LoadSet, opts SolveOpts, dst *Solution) (*Solution, error) {
	if opts.Substructured > 0 {
		// The condensation path performs its own direct solves, so the
		// backend name must still be a real one (usage error on every
		// route) and a preconditioner is rejected rather than silently
		// ignored — mirroring the direct backends.
		meth, err := linalg.Backend(opts.Backend)
		if err != nil {
			return nil, err
		}
		if opts.Precond != "" && opts.Precond != "none" {
			return nil, errs.Usage("substructured solves condense directly and take no preconditioner (%q requested)", opts.Precond)
		}
		s, err := PartitionByX(m, opts.Substructured)
		if err != nil {
			return nil, err
		}
		sol, err := SolveSubstructured(ctx, m, s, ls, opts.RT)
		if err != nil {
			return nil, err
		}
		sol.Backend = meth.Name
		return sol, nil
	}
	meth, err := opts.method()
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = &Solution{}
	}
	// asm.K shares the retained workspace's value buffer, and the solve
	// scratch is the workspace's too, so the lock is held until the solve
	// has read both for the last time (the residual check); concurrent
	// solves of one model serialize here.
	m.retained.mu.Lock()
	defer m.retained.mu.Unlock()
	asm, err := m.assembleRetained()
	if err != nil {
		return nil, err
	}
	ws := m.retained.ws
	return solveAssembled(ctx, m, asm, ws.pass, ls, meth, opts, m.retained.factorCache(), &ws.solve, dst)
}

// solveScratch holds the reduced-order vectors of a solve: the load b,
// the direct solution x and the residual r.  A retained workspace keeps
// one, so a warm solve allocates none of them; the zero value allocates
// each on first use.
type solveScratch struct{ b, x, r linalg.Vector }

// sized returns *v as a vector of length n, allocating it when it has
// another length.
func sized(v *linalg.Vector, n int) linalg.Vector {
	if len(*v) != n {
		*v = linalg.NewVector(n)
	}
	return *v
}

// solveAssembled solves asm, an assembly of m, for ls by meth,
// sequentially or NAVM-distributed as opts directs, into dst (recycling
// dst.U, see SolveInto).  fc is m's factor cache, passed in because Solve
// holds the retained mutex Model.Factors would take, pass is the token
// that vouches for asm.K's values, 0 for none, and sc is the scratch the
// reduced vectors are written into.  meth is opts.method's answer.
func solveAssembled(ctx context.Context, m *Model, asm *Assembled, pass uint64, ls *LoadSet, meth linalg.Method, opts SolveOpts, fc *linalg.FactorCache, sc *solveScratch, dst *Solution) (*Solution, error) {
	b := sized(&sc.b, len(asm.Free))
	if err := m.rhsInto(ls, asm.Index, b); err != nil {
		return nil, err
	}
	u := dst.U
	*dst = Solution{}
	dst.Stats.Merge(asm.Stats)
	iopts := linalg.IterOpts{
		Tol: opts.Tol, MaxIter: opts.MaxIter, Omega: opts.Omega,
		Precond: opts.Precond, OnIteration: opts.OnIteration,
	}
	var x linalg.Vector
	var info linalg.Info
	var err error
	if opts.Parallel > 0 {
		var d *navm.DistSystem
		if d, err = navm.Partition(asm.K, b, opts.Parallel); err != nil {
			return nil, err
		}
		iopts.Precond = "" // "none" at most; the distributed variants have none
		var st navm.SolveStats
		x, st, err = opts.RT.Solve(ctx, d, meth.Name, iopts)
		dst.Par = &st
		info = linalg.Info{Backend: meth.Name, Iterations: st.Iterations, Residual: st.ResidualNorm,
			Flops: st.Flops, Refactored: true}
	} else {
		// A direct method rides the model's factor cache, so the
		// production pattern of many solves on one model factors once.
		n := len(b)
		x, info, err = meth.Solve(ctx, fc, asm.K, pass, b, sized(&sc.x, n), sized(&sc.r, n), iopts)
	}
	if err != nil {
		return nil, err
	}
	dst.Backend, dst.Precond, dst.Refactored = info.Backend, info.Precond, info.Refactored
	dst.Iterations, dst.Residual = info.Iterations, info.Residual
	dst.Stats.Flops += info.Flops
	dst.Stats.Iterations += info.Iterations
	dst.U = asm.Expand(x, u)
	return dst, nil
}

// checkSolutionFits rejects a solution whose dof count is not the
// model's, so recovering stresses through the model's connectivity
// cannot index past U.  It is a bounds check, not an identity check: a
// solution of another model with as many dofs passes, which is why the
// session workspace drops a model's solution when generate, retrieve or
// restore replaces the model under the same name.
func checkSolutionFits(m *Model, sol *Solution) error {
	if len(sol.U) != m.NumDOF() {
		return fmt.Errorf("%w: solution has %d dofs, model has %d — solve again", ErrModel, len(sol.U), m.NumDOF())
	}
	return nil
}

// Stresses recovers per-element stress components from a solution — the
// AUVM "calculate stresses" operation.
func Stresses(m *Model, sol *Solution) ([][]float64, error) {
	return StressesInto(m, sol, nil)
}

// StressesInto is Stresses recycling dst, stresses its caller will not
// read again.  When dst has one row per element, each row is written over
// in place — and reallocated alone only when it is too short for its
// element — and dst is returned, so recovery into the previous recovery's
// rows allocates nothing.  Any other dst is ignored.  On an error dst's
// contents are unspecified.
func StressesInto(m *Model, sol *Solution, dst [][]float64) ([][]float64, error) {
	if err := checkSolutionFits(m, sol); err != nil {
		return nil, err
	}
	if n := len(m.Elements); len(dst) != n {
		// Rows are carved from one backing array, sized for the widest
		// element (a CST's three components).
		dst = make([][]float64, n)
		back := make([]float64, 3*n)
		for i := range dst {
			dst[i] = back[3*i : 3*i : 3*i+3]
		}
	}
	for i, e := range m.Elements {
		var err error
		if dst[i], err = e.AppendStress(m, sol.U, dst[i][:0]); err != nil {
			return nil, fmt.Errorf("fem: stress of element %d: %w", i, err)
		}
	}
	return dst, nil
}
