// The solver engine API: every way of solving K·x = b — direct or
// iterative, preconditioned or not — is a Solver in one static table
// under a backend name, solved through one context-aware entry point, and
// reported through one Info.  The fem layer, the REPL's solve verb, and
// the experiment harness all route through this table, so the six
// backends are selectable by name everywhere and appear in the paper's
// comparison tables side by side — the point of evaluating alternative
// solution strategies under one harness.

package linalg

import (
	"context"
	"sort"
	"sync"

	"repro/internal/errs"
)

// Info is the unified accounting of one completed (or abandoned) solve:
// which engine ran, how hard it worked, and how good the answer is.
type Info struct {
	// Backend is the registry name of the solver that ran.
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
	// Refactored reports whether a direct solve computed a fresh
	// factorisation (always true for the stateless registry backends);
	// false when a factor cache served the solve from a warm factor.
	// Meaningless for iterative backends.
	Refactored bool
}

// Solver is one solution engine for symmetric positive definite sparse
// systems.  Solve honours ctx (long solves return errs.ErrCancelled once
// the context is done), applies opts where meaningful (direct backends
// ignore tolerances and reject preconditioners), and always reports Info
// — on success, on cancellation, and on convergence failure alike.
type Solver interface {
	// Name is the backend's registry name.
	Name() string
	// Solve computes x with A·x = b.
	Solve(ctx context.Context, a *CSR, b Vector, opts IterOpts) (Vector, Info, error)
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

// backends maps names to the solvers, which are stateless and shared.
var backends = map[string]Solver{
	BackendCholesky:    choleskySolver{name: BackendCholesky},
	BackendCholeskyRCM: choleskySolver{name: BackendCholeskyRCM, opts: PlanOpts{Ordering: OrderRCM}},
	BackendCholeskyEnv: choleskySolver{name: BackendCholeskyEnv, opts: PlanOpts{Ordering: OrderRCM, Storage: StorageEnvelope}},
	BackendCG:          iterSolver{name: BackendCG, iterFactor: 10},
	BackendJacobi:      iterSolver{name: BackendJacobi, iterFactor: 200},
	BackendSOR:         iterSolver{name: BackendSOR, iterFactor: 100},
}

// Backend looks up a registered solver by name; the empty name selects
// the Cholesky baseline.  Unknown names are a usage error listing the
// registry.
func Backend(name string) (Solver, error) {
	if name == "" {
		name = BackendCholesky
	}
	s, ok := backends[name]
	if !ok {
		return nil, errs.Usage("unknown solver backend %q (have %v)", name, Backends())
	}
	return s, nil
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	out := make([]string, 0, len(backends))
	for name := range backends {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HasBackend reports whether name is a registered backend ("" selects
// the default and is always valid).
func HasBackend(name string) bool {
	if name == "" {
		return true
	}
	_, ok := backends[name]
	return ok
}

// iterWorkPool recycles iterative-kernel workspaces across Solve calls.
// The registry's backends are stateless shared singletons, so the scratch
// vectors live here instead: a steady-state solve allocates only its
// returned solution, and concurrent solves each draw their own workspace.
var iterWorkPool = sync.Pool{New: func() any { return new(IterWork) }}

// RejectPrecond is the guard of every backend but cg, the one method that
// takes a preconditioner; a direct and an iterative backend each refuse
// one in their own words.  The fem layer checks a solve's options with it
// before it assembles, so both routes refuse with one message.
func RejectPrecond(backend, precond string) error {
	if precond == "" || precond == "none" || backend == BackendCG {
		return nil
	}
	if backend == BackendJacobi || backend == BackendSOR {
		return errs.Usage("backend %q is iterative and takes no preconditioner (only cg does; %q requested)",
			backend, precond)
	}
	return errs.Usage("backend %q is direct and takes no preconditioner (%q requested)",
		backend, precond)
}

// DirectSolveInfo measures the residual of a direct solve and assembles
// its Info.  The verification SpMV's flops are not counted, so
// Info.Flops reports the factorisation work alone — keeping the
// experiment tables' direct-solve cost figures comparable with the
// pre-registry measurements.  The fem layer's cached path builds its
// Info through the same helper so cold and warm solves report alike, and
// passes r, its retained residual scratch (nil allocates one).
func DirectSolveInfo(backend string, a *CSR, x, b, r Vector, st *Stats) Info {
	resid := Residual(a, x, b, r, nil)
	if bnorm := Norm2(b, nil); bnorm > 0 {
		resid /= bnorm
	}
	return Info{Backend: backend, Residual: resid, Flops: st.Flops, Direct: true}
}

// choleskySolver is the direct backend family: a band or skyline
// profile, natural or RCM ordering, selected by its PlanOpts.  Each
// Solve is a one-shot DirectPlan — the registry backends are stateless;
// the factor caches above this layer are what make solves warm.
type choleskySolver struct {
	name string
	opts PlanOpts
}

// Name returns the registry name.
func (s choleskySolver) Name() string { return s.name }

// Solve factorises and back-substitutes.  A direct solve is one
// indivisible step, so ctx is honoured only before the factorisation.
func (s choleskySolver) Solve(ctx context.Context, a *CSR, b Vector, opts IterOpts) (Vector, Info, error) {
	if err := RejectPrecond(s.name, opts.Precond); err != nil {
		return nil, Info{Backend: s.name, Direct: true}, err
	}
	if err := CheckCancel(ctx, 1); err != nil {
		return nil, Info{Backend: s.name, Direct: true}, err
	}
	st := &Stats{}
	plan, err := NewDirectPlan(a, s.opts)
	if err != nil {
		return nil, Info{Backend: s.name, Direct: true}, err
	}
	if err := plan.Refactor(a, st); err != nil {
		return nil, Info{Backend: s.name, Flops: st.Flops, Direct: true, Refactored: true}, err
	}
	x, err := plan.SolveInto(b, nil, st)
	if err != nil {
		return nil, Info{Backend: s.name, Flops: st.Flops, Direct: true, Refactored: true}, err
	}
	info := DirectSolveInfo(s.name, a, x, b, nil, st)
	info.Refactored = true
	return x, info, nil
}

// IterDefaults fills the zero-value fields of opts for an iterative
// method of order n: the shared 1e-8 tolerance, an iterFactor·n
// iteration budget (floored at 200 and clamped to MaxIterCeiling), and
// ω=1.5.  Explicitly set fields pass through unchanged — including an
// out-of-range Omega, which the SOR kernel rejects.  The sequential
// backends and the NAVM distributed solvers share it, so both paths of
// one method always default to the same budget.
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

// iterSolver is an iterative backend: the method's kernel run as the
// sequential solve (one block, no cost hook) with an iterFactor·n
// default budget — cg 10·n, jacobi 200·n (it converges slowly, but every
// update is independent), sor 100·n.  Only cg takes a preconditioner,
// which opts.Precond selects from the preconditioner registry.
type iterSolver struct {
	name       string
	iterFactor int
}

// Name returns the registry name.
func (s iterSolver) Name() string { return s.name }

// Solve runs the method.
func (s iterSolver) Solve(ctx context.Context, a *CSR, b Vector, opts IterOpts) (Vector, Info, error) {
	info := Info{Backend: s.name}
	if err := RejectPrecond(s.name, opts.Precond); err != nil {
		return nil, info, err
	}
	opts = IterDefaults(opts, a.N, s.iterFactor)
	m, err := NewPreconditioner(opts.Precond, a, opts.Omega)
	if err != nil {
		return nil, info, err
	}
	if m != nil {
		info.Precond = m.Name()
	}
	st := &Stats{}
	ws := iterWorkPool.Get().(*IterWork)
	defer iterWorkPool.Put(ws)
	var x Vector
	switch s.name {
	case BackendCG:
		x, info.Iterations, info.Residual, err = CG(ctx, a, b, m, opts, oneBlock(a.N), st, ws)
	case BackendJacobi:
		x, info.Iterations, info.Residual, err = Jacobi(ctx, a, b, opts, oneBlock(a.N), st, ws)
	default:
		x, info.Iterations, info.Residual, err = SOR(ctx, a, b, ws.natural(a.N), opts, oneBlock(a.N), st, ws)
	}
	info.Flops = st.Flops
	return x, info, err
}
