// The solver engine API: every way of solving K·x = b — direct or
// iterative, preconditioned or not — is one row of the method table
// under a backend name, and every fact about a method is written in its
// row once: a direct row's plan; an iterative row's kernel over row
// blocks, default budget, preconditioner flag and distributed variant.
// The fem layer, the REPL's solve verb, the NAVM distributed solve and
// the experiment harness all look their method up here, so the six
// backends are selectable by name everywhere and appear in the paper's
// comparison tables side by side — the point of evaluating alternative
// solution strategies under one harness.

package linalg

import (
	"context"
	"strings"
	"sync"

	"repro/internal/errs"
)

// Info is the unified accounting of one completed (or abandoned) solve:
// which engine ran, how hard it worked, and how good the answer is.
type Info struct {
	// Backend is the table name of the method that ran.
	Backend string
	// Precond is the preconditioner name, "" when none applied.
	Precond string
	// Iterations counts solver iterations; 0 for direct solves.
	Iterations int
	// Residual is the relative residual ‖b-Ax‖/‖b‖ of the returned
	// solution (measured after the fact for direct solves).
	Residual float64
	// Flops counts the floating point work of the solve.
	Flops int64
	// Direct reports whether the backend factorises rather than
	// iterates.
	Direct bool
	// Refactored reports whether the solve did all its work: a direct
	// solve that computed a fresh factorisation, or any iterative solve;
	// false when a factor cache served a direct solve from a warm factor.
	Refactored bool
}

// The built-in backend names.
const (
	// BackendCholesky is sequential banded Cholesky in the mesh's
	// natural numbering — the 1980s production baseline: an envelope
	// with a uniform band profile, back-substituted as a row dot.
	BackendCholesky = "cholesky"
	// BackendCholeskyRCM is banded Cholesky after reverse Cuthill–McKee
	// bandwidth reduction — the full 1980s direct-solve pipeline.
	BackendCholeskyRCM = "cholesky-rcm"
	// BackendCholeskyEnv is envelope (skyline) Cholesky after RCM: each
	// row pays for its own profile instead of the worst row's bandwidth,
	// so irregular meshes stop subsidising their widest row.  All three
	// share one factor kernel, so their factors of one ordering agree
	// bitwise.
	BackendCholeskyEnv = "cholesky-env"
	// BackendCG is (optionally preconditioned) conjugate gradients.
	BackendCG = "cg"
	// BackendJacobi is Jacobi iteration.
	BackendJacobi = "jacobi"
	// BackendSOR is successive over-relaxation.
	BackendSOR = "sor"
)

// Kernel is an iterative method's iteration over a's row blocks bl (see
// Blocks): it solves a·x = b to opts.Tol within opts.MaxIter, applying
// m when it is not nil (only cg takes one) and sweeping the row classes
// in order (only sor reads them; nil sweeps every row in natural order).
// ws is the scratch workspace, nil to allocate.  It returns the solution,
// the iteration count and the final relative residual.
type Kernel func(ctx context.Context, a *CSR, b Vector, m Preconditioner, classes [][]int, opts IterOpts, bl Blocks, st *Stats, ws *IterWork) (Vector, int, float64, error)

// Method is one row of the method table.  A direct row has a Plan and no
// Kernel; an iterative row has the rest.
type Method struct {
	// Name is the backend name the row is selected by.
	Name string
	// Plan is a direct row's factor configuration.
	Plan PlanOpts
	// Kernel is an iterative row's iteration, run sequentially on one
	// block and distributed on one block per worker.
	Kernel Kernel
	// Budget is the default iteration budget per unknown: MaxIter
	// defaults to Budget·n (see IterDefaults) on both routes.
	Budget int
	// Precond reports whether the method takes a preconditioner.
	Precond bool
	// Distributed names the NAVM variant; its ConvergenceError carries
	// this name.
	Distributed string
	// Colored makes the distributed variant sweep a greedy colouring's
	// classes (the sequential solve sweeps natural order).
	Colored bool
	// Vectors is the per-unknown vector count of the distributed
	// variant's workspace, counted with its matrix rows in
	// navm.words_alloc; 0 counts nothing.
	Vectors int
}

// methods is the table, sorted by name.  Jacobi gets the largest budget:
// it converges slowly, but every update is independent.
var methods = []Method{
	{Name: BackendCG, Kernel: CG, Budget: 10, Precond: true, Distributed: "parallel-cg", Vectors: 4},
	{Name: BackendCholesky},
	{Name: BackendCholeskyEnv, Plan: PlanOpts{Ordering: OrderRCM, Storage: StorageEnvelope}},
	{Name: BackendCholeskyRCM, Plan: PlanOpts{Ordering: OrderRCM}},
	{Name: BackendJacobi, Kernel: Jacobi, Budget: 200, Distributed: "parallel-jacobi"},
	{Name: BackendSOR, Kernel: SOR, Budget: 100, Distributed: "parallel-multicolor-sor", Colored: true},
}

// lookup returns the named row; the empty name selects the Cholesky
// baseline.
func lookup(name string) (Method, bool) {
	if name == "" {
		name = BackendCholesky
	}
	for _, m := range methods {
		if m.Name == name {
			return m, true
		}
	}
	return Method{}, false
}

// Backend looks up a method by name; the empty name selects the
// Cholesky baseline.  Unknown names are a usage error listing the table.
func Backend(name string) (Method, error) {
	m, ok := lookup(name)
	if !ok {
		return m, errs.Usage("unknown solver backend %q (have %v)", name, Backends())
	}
	return m, nil
}

// Backends returns the table's backend names, sorted.
func Backends() []string {
	out := make([]string, len(methods))
	for i, m := range methods {
		out[i] = m.Name
	}
	return out
}

// HasBackend reports whether name is in the table ("" selects the
// default and is always valid).
func HasBackend(name string) bool {
	_, ok := lookup(name)
	return ok
}

// PlanOptsFor maps a direct backend's name onto its plan configuration;
// ok is false for iterative backends (and unknown names), which have
// nothing to cache.
func PlanOptsFor(backend string) (PlanOpts, bool) {
	m, ok := lookup(backend)
	return m.Plan, ok && m.Kernel == nil
}

// Distributed looks up the method of a distributed solve: the empty name
// selects cg.  A preconditioner, or a method with no distributed variant,
// is a usage error.
func Distributed(backend, precond string) (Method, error) {
	if backend == "" {
		backend = BackendCG
	}
	if precond != "" && precond != "none" {
		return Method{}, errs.Usage("distributed %s has no preconditioned variant (%q requested)", backend, precond)
	}
	m, ok := lookup(backend)
	if !ok || m.Distributed == "" {
		var have []string
		for _, d := range methods {
			if d.Distributed != "" {
				have = append(have, d.Name)
			}
		}
		last := len(have) - 1
		return Method{}, errs.Usage("backend %q has no distributed variant (try %s, or %s)",
			backend, strings.Join(have[:last], ", "), have[last])
	}
	return m, nil
}

// RejectPrecond is the guard of every method that takes no
// preconditioner; a direct and an iterative method each refuse one in
// their own words.  The fem layer checks a solve's options with it
// before it assembles, so every route refuses with one message.
func (m Method) RejectPrecond(precond string) error {
	switch {
	case precond == "" || precond == "none" || m.Precond:
		return nil
	case m.Kernel != nil:
		return errs.Usage("backend %q is iterative and takes no preconditioner (only cg does; %q requested)",
			m.Name, precond)
	}
	return errs.Usage("backend %q is direct and takes no preconditioner (%q requested)", m.Name, precond)
}

// iterWorkPool recycles iterative-kernel workspaces across Solve calls.
// The table's rows are plain shared values, so the scratch vectors live
// here instead: a steady-state solve allocates only its returned
// solution, and concurrent solves each draw their own workspace.
var iterWorkPool = sync.Pool{New: func() any { return new(IterWork) }}

// Solve runs the method sequentially on a·x = b.  A direct row solves
// through fc's plan for it (FactorCache.SolveCached, with pass as there),
// factoring only when it must — a fresh cache is the one-shot solve — into
// x, with r the residual's scratch (each allocated when nil); a direct solve
// is one indivisible step, so ctx is honoured only before it.  An
// iterative row runs its kernel on one block under the row's defaults
// for opts' zero fields, returns a new vector, and ignores fc, pass, x
// and r.  Info is reported on success, on cancellation and on
// convergence failure alike.
func (m Method) Solve(ctx context.Context, fc *FactorCache, a *CSR, pass uint64, b, x, r Vector, opts IterOpts) (Vector, Info, error) {
	info := Info{Backend: m.Name, Direct: m.Kernel == nil, Refactored: true}
	if err := m.RejectPrecond(opts.Precond); err != nil {
		return nil, info, err
	}
	if info.Direct {
		if err := CheckCancel(ctx, 1); err != nil {
			return nil, info, err
		}
		var st Stats
		sol, refactored, err := fc.SolveCached(m.Name, a, pass, b, x, &st)
		if err != nil {
			return nil, info, err
		}
		// The residual check's product is not counted: Info.Flops is the
		// solve's work, comparable with the experiments' older figures.
		info.Residual = Residual(a, sol, b, r, nil)
		if bnorm := Norm2(b, nil); bnorm > 0 {
			info.Residual /= bnorm
		}
		info.Flops, info.Refactored = st.Flops, refactored
		return sol, info, nil
	}
	opts = IterDefaults(opts, a.N, m.Budget)
	pc, err := NewPreconditioner(opts.Precond, a, opts.Omega)
	if err != nil {
		return nil, info, err
	}
	if pc != nil {
		info.Precond = pc.Name()
	}
	st := &Stats{}
	ws := iterWorkPool.Get().(*IterWork)
	defer iterWorkPool.Put(ws)
	x, info.Iterations, info.Residual, err = m.Kernel(ctx, a, b, pc, nil, opts, oneBlock(a.N), st, ws)
	info.Flops = st.Flops
	return x, info, err
}

// IterDefaults fills the zero-value fields of opts for an iterative
// method of order n: the shared 1e-8 tolerance, an iterFactor·n
// iteration budget (floored at 200 and clamped to MaxIterCeiling), and
// ω=1.5.  Explicitly set fields pass through unchanged — including an
// out-of-range Omega, which the SOR kernel rejects.  The sequential
// solve and the NAVM distributed one both call it with the row's
// Budget, so both routes of one method default to the same budget.
func IterDefaults(opts IterOpts, n, iterFactor int) IterOpts {
	if opts.Tol <= 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = clampIter(iterFactor * n)
	}
	if opts.Omega == 0 {
		opts.Omega = 1.5
	}
	return opts
}
