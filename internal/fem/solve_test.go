package fem

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/errs"
	"repro/internal/linalg"
	"repro/internal/navm"
	"repro/internal/obs"
)

// solveRuntime builds a small simulated machine for distributed-solve
// tests.
func solveRuntime(t *testing.T) *navm.Runtime {
	t.Helper()
	cfg := arch.DefaultConfig()
	cfg.Clusters = 2
	cfg.PEsPerCluster = 4
	rt := navm.NewRuntime(arch.MustNew(cfg))
	rt.AttachInstrumentation(obs.New())
	return rt
}

// TestSolveRoutesEveryBackendToSameAnswer drives the one solve path per
// engine on the shared fixture — the typed-API half of the acceptance
// criterion (the REPL half lives in the root package's tests).  The bar
// chain is diagonally dominant enough that even Jacobi converges.
func TestSolveRoutesEveryBackendToSameAnswer(t *testing.T) {
	m, err := UniaxialBar("chain", 12, 120, Material{E: 200000, A: 10})
	if err != nil {
		t.Fatal(err)
	}
	ls := &LoadSet{Name: "tip", Entries: []LoadEntry{{DOF: DOF(12, 0), Value: 500}}}
	ctx := context.Background()
	ref, err := Solve(ctx, m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Backend != linalg.BackendCholesky || ref.Iterations != 0 {
		t.Errorf("default solve reported %q/%d iterations", ref.Backend, ref.Iterations)
	}
	scale := linalg.NormInf(ref.U)
	cases := []SolveOpts{
		{Backend: linalg.BackendCholeskyRCM},
		{Backend: linalg.BackendCG},
		{Backend: linalg.BackendCG, Precond: linalg.PrecondJacobi},
		{Backend: linalg.BackendCG, Precond: linalg.PrecondSSOR},
		{Backend: linalg.BackendJacobi},
		{Backend: linalg.BackendSOR},
	}
	for _, opts := range cases {
		sol, err := Solve(ctx, m, ls, opts)
		if err != nil {
			t.Errorf("%s+%s: %v", opts.Backend, opts.Precond, err)
			continue
		}
		if d := linalg.MaxAbsDiff(sol.U, ref.U); d > 1e-6*scale {
			t.Errorf("%s+%s differs from cholesky by %g (scale %g)", opts.Backend, opts.Precond, d, scale)
		}
		if sol.Backend != opts.Backend || sol.Precond != opts.Precond {
			t.Errorf("solution reports %s+%s, want %s+%s", sol.Backend, sol.Precond, opts.Backend, opts.Precond)
		}
	}
}

func TestSolveUnknownBackend(t *testing.T) {
	m, _ := UniaxialBar("chain", 3, 30, Steel())
	ls := &LoadSet{Name: "l", Entries: []LoadEntry{{DOF: DOF(3, 0), Value: 1}}}
	if _, err := Solve(context.Background(), m, ls, SolveOpts{Backend: "gauss"}); !errors.Is(err, errs.ErrUsage) {
		t.Errorf("unknown backend error = %v, want ErrUsage", err)
	}
	// The substructured route validates engine names too.
	if _, err := Solve(context.Background(), m, ls, SolveOpts{Backend: "gauss", Substructured: 2}); !errors.Is(err, errs.ErrUsage) {
		t.Errorf("substructured unknown backend error = %v, want ErrUsage", err)
	}
	// A preconditioner is rejected, not silently ignored, on the
	// direct condensation route — known or unknown alike.
	for _, p := range []string{"ilu", linalg.PrecondSSOR} {
		if _, err := Solve(context.Background(), m, ls, SolveOpts{Precond: p, Substructured: 2}); !errors.Is(err, errs.ErrUsage) {
			t.Errorf("substructured precond %q error = %v, want ErrUsage", p, err)
		}
	}
}

func TestSolveParallelNeedsRuntime(t *testing.T) {
	m, _ := UniaxialBar("chain", 3, 30, Steel())
	ls := &LoadSet{Name: "l", Entries: []LoadEntry{{DOF: DOF(3, 0), Value: 1}}}
	if _, err := Solve(context.Background(), m, ls, SolveOpts{Parallel: 2}); err == nil {
		t.Error("parallel solve without a runtime accepted")
	}
}

func TestSolveParallelRejectsDirectBackend(t *testing.T) {
	m, _ := UniaxialBar("chain", 3, 30, Steel())
	ls := &LoadSet{Name: "l", Entries: []LoadEntry{{DOF: DOF(3, 0), Value: 1}}}
	opts := SolveOpts{Backend: linalg.BackendCholesky, Parallel: 2, RT: solveRuntime(t)}
	if _, err := Solve(context.Background(), m, ls, opts); !errors.Is(err, errs.ErrUsage) {
		t.Errorf("parallel cholesky error = %v, want ErrUsage", err)
	}
}

// TestRefusedSolveTouchesNothing pins each refusal of a solve's options —
// its text, and which one wins when several apply — and that it comes
// before the model is read: on a solved plate, untouched, after a
// coordinate edit and after a topology edit, a refused Solve moves no
// assemble counter and leaves the retained workspace and its pass as they
// were.
func TestRefusedSolveTouchesNothing(t *testing.T) {
	env, rt := linalg.BackendCholeskyEnv, solveRuntime(t)
	refused := []struct {
		opts SolveOpts
		want string
	}{
		{SolveOpts{Backend: env, Parallel: 2, RT: rt},
			`usage: backend "cholesky-env" has no distributed variant (try cg, jacobi, or sor)`},
		{SolveOpts{Backend: env, Precond: linalg.PrecondJacobi},
			`usage: backend "cholesky-env" is direct and takes no preconditioner ("jacobi" requested)`},
		{SolveOpts{Precond: linalg.PrecondSSOR},
			`usage: backend "cholesky" is direct and takes no preconditioner ("ssor" requested)`},
		{SolveOpts{Backend: linalg.BackendSOR, Precond: linalg.PrecondSSOR},
			`usage: backend "sor" is iterative and takes no preconditioner (only cg does; "ssor" requested)`},
		{SolveOpts{Parallel: 2, RT: rt, Precond: linalg.PrecondSSOR},
			`usage: distributed cg has no preconditioned variant ("ssor" requested)`},
		{SolveOpts{Backend: env, Parallel: 2, RT: rt, Precond: linalg.PrecondSSOR},
			`usage: distributed cholesky-env has no preconditioned variant ("ssor" requested)`},
		{SolveOpts{Backend: env, Parallel: 2, Precond: linalg.PrecondSSOR},
			`fem: parallel solve needs an attached runtime (no parallel machine)`},
	}
	edits := []struct {
		name string
		edit func(m *Model)
	}{
		{"untouched", func(*Model) {}},
		{"coordinate edit", func(m *Model) { m.Nodes[12].X += 0.125 }},
		{"topology edit", func(m *Model) { m.AddNode(9, 9) }},
	}
	ctx := context.Background()
	for _, e := range edits {
		for _, r := range refused {
			m, ls := cachePlate(t)
			reg := obs.New()
			m.Instrument(reg)
			if _, err := Solve(ctx, m, ls, SolveOpts{Backend: env}); err != nil {
				t.Fatal(err)
			}
			counters := func() [3]int64 {
				return [3]int64{reg.Counter(obs.AssembleSymbolic).Load(), reg.Counter(obs.AssembleReused).Load(), reg.Counter(obs.AssembleUnchanged).Load()}
			}
			ws, pass, before := m.retained.ws, m.retained.ws.pass, counters()
			e.edit(m)
			o := r.opts
			label := fmt.Sprintf("%s, backend %q precond %q parallel %d runtime %t", e.name, o.Backend, o.Precond, o.Parallel, o.RT != nil)
			if _, err := Solve(ctx, m, ls, r.opts); fmt.Sprint(err) != r.want {
				t.Errorf("%s: Solve error %v, want %s", label, err, r.want)
			}
			if got := counters(); got != before {
				t.Errorf("%s: symbolic/reused/unchanged %v, was %v", label, got, before)
			}
			if m.retained.ws != ws || ws.pass != pass {
				t.Errorf("%s: the retained workspace moved", label)
			}
		}
	}
}

// TestSolveParallelBackends routes the distributed variants — cg,
// jacobi, multi-colour sor — through the same unified path and checks
// they agree with the direct baseline and report machine statistics.
func TestSolveParallelBackends(t *testing.T) {
	o := RectGridOpts{NX: 6, NY: 4, W: 6, H: 4, Mat: Steel(), ClampLeft: true}
	m, err := RectGrid("par", o)
	if err != nil {
		t.Fatal(err)
	}
	ls := EndLoad("tip", o, 0, -300)
	ctx := context.Background()
	ref, err := Solve(ctx, m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	scale := linalg.NormInf(ref.U)
	for _, backend := range []string{"", linalg.BackendCG, linalg.BackendSOR} {
		sol, err := Solve(ctx, m, ls, SolveOpts{Backend: backend, Parallel: 4, RT: solveRuntime(t), Tol: 1e-9})
		if err != nil {
			t.Fatalf("%q parallel: %v", backend, err)
		}
		if d := linalg.MaxAbsDiff(sol.U, ref.U); d > 1e-4*scale {
			t.Errorf("%q parallel differs from direct by %g (scale %g)", backend, d, scale)
		}
		if sol.Par == nil || sol.Par.Makespan == 0 || sol.Iterations == 0 {
			t.Errorf("%q parallel: stats missing: %+v", backend, sol)
		}
	}
}

// TestSolveParallelJacobiOnChain routes the distributed Jacobi variant
// (the chain is diagonally dominant, so it converges where plates do
// not).
func TestSolveParallelJacobiOnChain(t *testing.T) {
	m, err := UniaxialBar("chain", 16, 160, Material{E: 200000, A: 10})
	if err != nil {
		t.Fatal(err)
	}
	ls := &LoadSet{Name: "tip", Entries: []LoadEntry{{DOF: DOF(16, 0), Value: 500}}}
	ctx := context.Background()
	ref, err := Solve(ctx, m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(ctx, m, ls, SolveOpts{Backend: linalg.BackendJacobi, Parallel: 4, RT: solveRuntime(t), Tol: 1e-8, MaxIter: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(sol.U, ref.U); d > 1e-5*linalg.NormInf(ref.U) {
		t.Errorf("parallel jacobi differs by %g", d)
	}
	if sol.Backend != linalg.BackendJacobi || sol.Par == nil {
		t.Errorf("solution reports %q, Par=%v", sol.Backend, sol.Par)
	}
}

// TestSolveSequentialCancelMidIteration is the regression test for the
// ctx-cancellation gap: cancelling during the iteration loop stops the
// solve with errs.ErrCancelled instead of running to completion.
func TestSolveSequentialCancelMidIteration(t *testing.T) {
	o := RectGridOpts{NX: 10, NY: 8, W: 10, H: 8, Mat: Steel(), ClampLeft: true}
	m, err := RectGrid("cancel", o)
	if err != nil {
		t.Fatal(err)
	}
	ls := EndLoad("tip", o, 0, -100)
	ctx, cancel := context.WithCancel(context.Background())
	opts := SolveOpts{Backend: linalg.BackendCG, Tol: 1e-14,
		OnIteration: func(iter int, _ float64) {
			if iter == 1 {
				cancel()
			}
		}}
	_, err = Solve(ctx, m, ls, opts)
	if !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("cancelled sequential solve returned %v, want ErrCancelled", err)
	}
}

// TestSolveParallelCancelMidIteration covers the distributed path: the
// NAVM iteration loop polls the same ctx.
func TestSolveParallelCancelMidIteration(t *testing.T) {
	o := RectGridOpts{NX: 10, NY: 8, W: 10, H: 8, Mat: Steel(), ClampLeft: true}
	m, err := RectGrid("cancel-par", o)
	if err != nil {
		t.Fatal(err)
	}
	ls := EndLoad("tip", o, 0, -100)
	ctx, cancel := context.WithCancel(context.Background())
	opts := SolveOpts{Parallel: 4, RT: solveRuntime(t), Tol: 1e-14,
		OnIteration: func(iter int, _ float64) {
			if iter == 1 {
				cancel()
			}
		}}
	_, err = Solve(ctx, m, ls, opts)
	if !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("cancelled parallel solve returned %v, want ErrCancelled", err)
	}
}

func TestSolveSubstructuredCancelled(t *testing.T) {
	o := RectGridOpts{NX: 8, NY: 4, W: 8, H: 4, Mat: Steel(), ClampLeft: true}
	m, err := RectGrid("cancel-sub", o)
	if err != nil {
		t.Fatal(err)
	}
	ls := EndLoad("tip", o, 0, -100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, m, ls, SolveOpts{Substructured: 4}); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("cancelled substructured solve returned %v, want ErrCancelled", err)
	}
}

// TestSolveSubstructuredThroughUnifiedPath checks the third route of the
// one solve entry point.
func TestSolveSubstructuredThroughUnifiedPath(t *testing.T) {
	o := RectGridOpts{NX: 8, NY: 4, W: 8, H: 4, Mat: Steel(), ClampLeft: true}
	m, err := RectGrid("sub-route", o)
	if err != nil {
		t.Fatal(err)
	}
	ls := EndLoad("tip", o, 0, -100)
	ctx := context.Background()
	ref, err := Solve(ctx, m, ls, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(ctx, m, ls, SolveOpts{Substructured: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(sol.U, ref.U); d > 1e-8*linalg.NormInf(ref.U) {
		t.Errorf("substructured route differs by %g", d)
	}
	if sol.Backend != linalg.BackendCholesky {
		t.Errorf("substructured solution reports backend %q", sol.Backend)
	}
}

// TestSolveIntoWritesOverItsDestination pins SolveInto's recycling on
// every path of Solve: the result is the destination, its U keeps its
// storage when the dof count fits, and every field and every entry of U —
// a fixed dof's +0 included — is written over, so a destination full of
// NaNs and stale accounting gives the bits Solve gives a fresh copy.  A
// destination of another length gets a new U, and a substructured solve
// returns a new Solution and leaves the destination alone.
func TestSolveIntoWritesOverItsDestination(t *testing.T) {
	m, ls := cachePlate(t)
	if err := m.AddElement(&Bar{N1: 7, N2: 20, Mat: Steel()}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt := solveRuntime(t)
	stale := func(n int) *Solution {
		u := linalg.NewVector(n)
		u.Fill(math.NaN())
		return &Solution{U: u, Backend: "stale", Precond: "stale", Iterations: 99, Residual: math.NaN(),
			Stats: linalg.Stats{Flops: 1 << 40, Iterations: 7}, Refactored: false, Par: &navm.SolveStats{Workers: 9}}
	}
	for _, opts := range []SolveOpts{
		{},
		{Backend: linalg.BackendCholeskyEnv},
		{Backend: linalg.BackendCG, Precond: linalg.PrecondJacobi},
		{Backend: linalg.BackendSOR},
		{Parallel: 2, RT: rt},
		{Substructured: 2},
	} {
		label := fmt.Sprintf("%s+%s parallel %d substructured %d", opts.Backend, opts.Precond, opts.Parallel, opts.Substructured)
		want, err := Solve(ctx, deepCopy(t, m), ls, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, n := range []int{m.NumDOF(), 3} {
			dst := stale(n)
			u := dst.U
			got, err := SolveInto(ctx, deepCopy(t, m), ls, opts, dst)
			sameSolution(t, label, got, err, want, nil)
			if got.Backend != want.Backend || got.Precond != want.Precond || (got.Par == nil) != (want.Par == nil) ||
				got.Stats != want.Stats {
				t.Fatalf("%s: backend/precond/par/stats %q/%q/%v/%+v, want %q/%q/%v/%+v", label,
					got.Backend, got.Precond, got.Par != nil, got.Stats, want.Backend, want.Precond, want.Par != nil, want.Stats)
			}
			if opts.Substructured > 0 {
				if got == dst || dst.Backend != "stale" || !math.IsNaN(dst.U[0]) {
					t.Fatalf("%s: a substructured solve wrote over its destination", label)
				}
				continue
			}
			if got != dst {
				t.Fatalf("%s: SolveInto returned another Solution than its destination", label)
			}
			if kept := &got.U[0] == &u[0]; kept != (n == m.NumDOF()) {
				t.Fatalf("%s: a destination U of %d dofs kept its storage: %v", label, n, kept)
			}
		}
	}
}
