package linalg

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/errs"
)

// engineFixture builds the shared SPD fixture every backend must solve
// to the same answer: a 2D Poisson matrix with a known solution.
func engineFixture(t *testing.T, n int) (*CSR, Vector, Vector) {
	t.Helper()
	m := poisson2D(n)
	want := NewVector(m.N)
	for i := range want {
		want[i] = float64(i%7) - 3
	}
	b := m.MulVec(want, nil, nil)
	return m, b, want
}

func TestBackendsListsEveryBuiltin(t *testing.T) {
	got := Backends()
	for _, name := range []string{BackendCholesky, BackendCholeskyRCM, BackendCG, BackendJacobi, BackendSOR} {
		found := false
		for _, g := range got {
			if g == name {
				found = true
			}
		}
		if !found {
			t.Errorf("Backends() = %v missing %q", got, name)
		}
		if !HasBackend(name) {
			t.Errorf("HasBackend(%q) = false", name)
		}
	}
}

func TestBackendUnknownName(t *testing.T) {
	_, err := Backend("gauss")
	if !errors.Is(err, errs.ErrUsage) {
		t.Fatalf("unknown backend error = %v, want ErrUsage", err)
	}
	if !strings.Contains(err.Error(), BackendCholesky) {
		t.Errorf("unknown-backend error %q does not list the registry", err)
	}
	if HasBackend("gauss") {
		t.Error("HasBackend accepted an unknown name")
	}
}

func TestBackendEmptyNameIsCholesky(t *testing.T) {
	s, err := Backend("")
	if err != nil || s.Name() != BackendCholesky {
		t.Fatalf("Backend(\"\") = %v, %v", s, err)
	}
}

// TestEveryBackendSolvesSharedFixture is the registry acceptance test:
// every backend — and CG under every preconditioner — produces the same
// answer on the shared SPD fixture, and its Info is coherent.
func TestEveryBackendSolvesSharedFixture(t *testing.T) {
	m, b, want := engineFixture(t, 6)
	type engine struct{ backend, precond string }
	var cases []engine
	for _, name := range Backends() {
		cases = append(cases, engine{name, ""})
	}
	for _, p := range Preconds() {
		cases = append(cases, engine{BackendCG, p})
	}
	ctx := context.Background()
	for _, c := range cases {
		s, err := Backend(c.backend)
		if err != nil {
			t.Fatal(err)
		}
		opts := IterOpts{Tol: 1e-10, MaxIter: 50000, Precond: c.precond}
		x, info, err := s.Solve(ctx, m, b, opts)
		if err != nil {
			t.Errorf("%s+%s: %v", c.backend, c.precond, err)
			continue
		}
		if d := MaxAbsDiff(x, want); d > 1e-6 {
			t.Errorf("%s+%s error %g", c.backend, c.precond, d)
		}
		if info.Backend != c.backend {
			t.Errorf("info.Backend = %q, want %q", info.Backend, c.backend)
		}
		if info.Precond != c.precond {
			t.Errorf("%s: info.Precond = %q, want %q", c.backend, info.Precond, c.precond)
		}
		if info.Flops == 0 {
			t.Errorf("%s+%s: no flops accounted", c.backend, c.precond)
		}
		if info.Direct != (info.Iterations == 0) {
			t.Errorf("%s+%s: info = %+v (direct/iterations mismatch)", c.backend, c.precond, info)
		}
		if info.Residual > 1e-6 {
			t.Errorf("%s+%s: residual %g", c.backend, c.precond, info.Residual)
		}
	}
}

func TestDirectBackendRejectsPrecond(t *testing.T) {
	m, b, _ := engineFixture(t, 3)
	for _, name := range []string{BackendCholesky, BackendCholeskyRCM} {
		s, err := Backend(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Solve(context.Background(), m, b, IterOpts{Precond: PrecondJacobi}); !errors.Is(err, errs.ErrUsage) {
			t.Errorf("%s accepted a preconditioner: %v", name, err)
		}
	}
}

// TestBackendsRefusePrecondInTheirOwnWords pins the refusal each backend
// but cg gives a preconditioner: a direct one says it is direct, jacobi
// and sor say they are iterative and name the one method that takes one.
func TestBackendsRefusePrecondInTheirOwnWords(t *testing.T) {
	m, b, _ := engineFixture(t, 3)
	want := map[string]string{
		BackendCholesky:    `usage: backend "cholesky" is direct and takes no preconditioner ("ssor" requested)`,
		BackendCholeskyRCM: `usage: backend "cholesky-rcm" is direct and takes no preconditioner ("ssor" requested)`,
		BackendCholeskyEnv: `usage: backend "cholesky-env" is direct and takes no preconditioner ("ssor" requested)`,
		BackendJacobi:      `usage: backend "jacobi" is iterative and takes no preconditioner (only cg does; "ssor" requested)`,
		BackendSOR:         `usage: backend "sor" is iterative and takes no preconditioner (only cg does; "ssor" requested)`,
	}
	for _, name := range Backends() {
		if name == BackendCG {
			continue
		}
		s, err := Backend(name)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = s.Solve(context.Background(), m, b, IterOpts{Precond: PrecondSSOR})
		if fmt.Sprint(err) != want[name] {
			t.Errorf("%s with a preconditioner: %v, want %s", name, err, want[name])
		}
		if rerr := RejectPrecond(name, PrecondSSOR); fmt.Sprint(rerr) != want[name] {
			t.Errorf("RejectPrecond(%q): %v, want %s", name, rerr, want[name])
		}
	}
	for _, p := range []string{"", "none"} {
		if err := RejectPrecond(BackendJacobi, p); err != nil {
			t.Errorf("RejectPrecond(jacobi, %q) = %v", p, err)
		}
	}
}

func TestCGUnknownPrecond(t *testing.T) {
	m, b, _ := engineFixture(t, 3)
	s, _ := Backend(BackendCG)
	if _, _, err := s.Solve(context.Background(), m, b, IterOpts{Precond: "ilu"}); !errors.Is(err, errs.ErrUsage) {
		t.Errorf("unknown preconditioner error = %v, want ErrUsage", err)
	}
	if HasPrecond("ilu") {
		t.Error("HasPrecond accepted an unknown name")
	}
	if !HasPrecond("") || !HasPrecond("none") || !HasPrecond(PrecondSSOR) {
		t.Error("HasPrecond rejects valid names")
	}
}

// TestSSORPrecondReducesCGIterations checks the preconditioner earns its
// keep: on the Poisson fixture SSOR-preconditioned CG takes strictly
// fewer iterations than plain CG.
func TestSSORPrecondReducesCGIterations(t *testing.T) {
	m, b, _ := engineFixture(t, 12)
	s, _ := Backend(BackendCG)
	_, plain, err := s.Solve(context.Background(), m, b, IterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	_, pre, err := s.Solve(context.Background(), m, b, IterOpts{Precond: PrecondSSOR})
	if err != nil {
		t.Fatal(err)
	}
	if pre.Iterations >= plain.Iterations {
		t.Errorf("ssor-preconditioned CG took %d iterations vs %d plain",
			pre.Iterations, plain.Iterations)
	}
}

// TestIterativeBackendsHonourCancel is the ctx-cancellation regression
// test: a context cancelled mid-iteration stops the loop and returns an
// error wrapping errs.ErrCancelled (and the context's own error).
func TestIterativeBackendsHonourCancel(t *testing.T) {
	m, b, _ := engineFixture(t, 12)
	for _, name := range []string{BackendCG, BackendJacobi, BackendSOR} {
		s, err := Backend(name)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		fired := 0
		opts := IterOpts{
			Tol: 1e-14, MaxIter: 50000,
			OnIteration: func(iter int, _ float64) {
				fired = iter
				if iter == 1 {
					cancel() // mid-solve: the loop is already running
				}
			},
		}
		_, _, err = s.Solve(ctx, m, b, opts)
		if !errors.Is(err, errs.ErrCancelled) {
			t.Errorf("%s: cancelled solve returned %v, want ErrCancelled", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: context's own error missing from chain: %v", name, err)
		}
		// The loop noticed within one cancellation-check interval.
		if fired == 0 || fired > 2*cancelCheckInterval {
			t.Errorf("%s: solve ran %d iterations after cancellation", name, fired)
		}
	}
}

func TestDirectBackendsHonourPreCancelledCtx(t *testing.T) {
	m, b, _ := engineFixture(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{BackendCholesky, BackendCholeskyRCM} {
		s, _ := Backend(name)
		if _, _, err := s.Solve(ctx, m, b, IterOpts{}); !errors.Is(err, errs.ErrCancelled) {
			t.Errorf("%s: pre-cancelled ctx returned %v", name, err)
		}
	}
}

func TestConvergenceErrorCarriesFinalState(t *testing.T) {
	m, b, _ := engineFixture(t, 8)
	s, _ := Backend(BackendCG)
	_, info, err := s.Solve(context.Background(), m, b, IterOpts{Tol: 1e-14, MaxIter: 3})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("budget exhaustion returned %v, want ErrNoConvergence", err)
	}
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not a *ConvergenceError", err)
	}
	if ce.Iterations != 3 || ce.Residual <= 0 || ce.Backend != BackendCG {
		t.Errorf("ConvergenceError = %+v", ce)
	}
	if info.Iterations != 3 || info.Residual != ce.Residual {
		t.Errorf("info %+v disagrees with error %+v", info, ce)
	}
}

func TestDefaultIterOptsBounds(t *testing.T) {
	if got := DefaultIterOpts(5).MaxIter; got != 200 {
		t.Errorf("small-n budget = %d, want the 200 floor", got)
	}
	if got := DefaultIterOpts(1_000_000).MaxIter; got != MaxIterCeiling {
		t.Errorf("huge-n budget = %d, want the %d ceiling", got, MaxIterCeiling)
	}
	if got := DefaultIterOpts(100).MaxIter; got != 1000 {
		t.Errorf("mid-n budget = %d, want 10n", got)
	}
}
