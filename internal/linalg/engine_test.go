package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
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
	if err != nil || s.Name != BackendCholesky {
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
		x, info, err := s.Solve(ctx, new(FactorCache), m, 0, b, nil, nil, opts)
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
		if _, _, err := s.Solve(context.Background(), new(FactorCache), m, 0, b, nil, nil, IterOpts{Precond: PrecondJacobi}); !errors.Is(err, errs.ErrUsage) {
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
		_, _, err = s.Solve(context.Background(), new(FactorCache), m, 0, b, nil, nil, IterOpts{Precond: PrecondSSOR})
		if fmt.Sprint(err) != want[name] {
			t.Errorf("%s with a preconditioner: %v, want %s", name, err, want[name])
		}
		if rerr := s.RejectPrecond(PrecondSSOR); fmt.Sprint(rerr) != want[name] {
			t.Errorf("RejectPrecond(%q): %v, want %s", name, rerr, want[name])
		}
	}
	jacobi, _ := Backend(BackendJacobi)
	for _, p := range []string{"", "none"} {
		if err := jacobi.RejectPrecond(p); err != nil {
			t.Errorf("RejectPrecond(jacobi, %q) = %v", p, err)
		}
	}
}

func TestCGUnknownPrecond(t *testing.T) {
	m, b, _ := engineFixture(t, 3)
	s, _ := Backend(BackendCG)
	if _, _, err := s.Solve(context.Background(), new(FactorCache), m, 0, b, nil, nil, IterOpts{Precond: "ilu"}); !errors.Is(err, errs.ErrUsage) {
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
	_, plain, err := s.Solve(context.Background(), new(FactorCache), m, 0, b, nil, nil, IterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	_, pre, err := s.Solve(context.Background(), new(FactorCache), m, 0, b, nil, nil, IterOpts{Precond: PrecondSSOR})
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
		_, _, err = s.Solve(ctx, new(FactorCache), m, 0, b, nil, nil, opts)
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
		if _, _, err := s.Solve(ctx, new(FactorCache), m, 0, b, nil, nil, IterOpts{}); !errors.Is(err, errs.ErrCancelled) {
			t.Errorf("%s: pre-cancelled ctx returned %v", name, err)
		}
	}
}

func TestConvergenceErrorCarriesFinalState(t *testing.T) {
	m, b, _ := engineFixture(t, 8)
	s, _ := Backend(BackendCG)
	_, info, err := s.Solve(context.Background(), new(FactorCache), m, 0, b, nil, nil, IterOpts{Tol: 1e-14, MaxIter: 3})
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

// TestNaNLoadStopsAtOnce: a NaN in the load makes the first residual
// non-finite, and every iterative method stops there, with a diverged
// ConvergenceError at iteration 1, instead of running out its budget.
func TestNaNLoadStopsAtOnce(t *testing.T) {
	a := poisson2D(6)
	b := NewVector(a.N)
	b.Fill(1)
	b[7] = math.NaN()
	for _, name := range []string{BackendCG, BackendJacobi, BackendSOR} {
		s, _ := Backend(name)
		_, info, err := s.Solve(context.Background(), nil, a, 0, b, nil, nil, IterOpts{})
		var ce *ConvergenceError
		if !errors.As(err, &ce) || !ce.Diverged || ce.Iterations != 1 || info.Iterations != 1 {
			t.Errorf("%s on a NaN load: %v after %d iterations, want divergence at iteration 1", name, err, info.Iterations)
		}
	}
}

// budgetSystem is an n×n grid system no method here solves to an
// unreachable tolerance in finite steps, with its load e₀: the Poisson
// stencil plus a skew-symmetric coupling of ±½ between neighbours.  Its
// symmetric part is the Poisson matrix, so pᵀAp > 0 and CG never breaks
// down, but CG's recurrences assume symmetry and its residual stalls;
// Jacobi and SOR reach rounding level and stay there.
func budgetSystem(n int) (*CSR, Vector) {
	var ts []Triplet
	for i := 0; i < n*n; i++ {
		ts = append(ts, Triplet{Row: i, Col: i, Val: 4})
		for _, nb := range []struct {
			col  int
			in   bool
			coef float64
		}{{i - n, i >= n, -0.5}, {i + n, i < n*n-n, -1.5}, {i - 1, i%n > 0, -0.5}, {i + 1, i%n < n-1, -1.5}} {
			if nb.in {
				ts = append(ts, Triplet{Row: i, Col: nb.col, Val: nb.coef})
			}
		}
	}
	a, err := NewCSRFromTriplets(n*n, ts)
	if err != nil {
		panic(err)
	}
	b := NewVector(n * n)
	b[0] = 1
	return a, b
}

// budgetOf returns the iteration budget the sequential route gives the
// named method on an n×n grid by default, read off a finite solve of
// budgetSystem at a tolerance no residual meets, which so runs its whole
// budget.
func budgetOf(t *testing.T, name string, n int) int {
	t.Helper()
	a, b := budgetSystem(n)
	s, err := Backend(name)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := s.Solve(context.Background(), nil, a, 0, b, nil, nil, IterOpts{Tol: math.SmallestNonzeroFloat64})
	var ce *ConvergenceError
	if !errors.As(err, &ce) || ce.Diverged || ce.Iterations != info.Iterations {
		t.Fatalf("%s at an unreachable tolerance: %v after %d iterations", name, err, info.Iterations)
	}
	return ce.Iterations
}

// TestDefaultIterOptsBounds pins the cg row's default budget: the 200
// floor and 10·n are read off the sequential route, and the
// MaxIterCeiling cap, which only a system of over 20 000 unknowns
// reaches, off the defaults the row gives both routes.  navm's
// TestDefaultBudgets reads the distributed route.
func TestDefaultIterOptsBounds(t *testing.T) {
	if got := budgetOf(t, BackendCG, 2); got != 200 {
		t.Errorf("4-unknown budget = %d, want the 200 floor", got)
	}
	cg, _ := Backend(BackendCG)
	if got := IterDefaults(IterOpts{}, 1_000_000, cg.Budget).MaxIter; got != MaxIterCeiling {
		t.Errorf("huge-n budget = %d, want the %d ceiling", got, MaxIterCeiling)
	}
	if got := budgetOf(t, BackendCG, 10); got != 1000 {
		t.Errorf("100-unknown budget = %d, want 10n", got)
	}
}

// TestDefaultBudgets pins the stationary methods' default budgets on the
// sequential route: jacobi 200·n, sor 100·n.
func TestDefaultBudgets(t *testing.T) {
	for name, want := range map[string]int{BackendJacobi: 800, BackendSOR: 400} {
		if got := budgetOf(t, name, 2); got != want {
			t.Errorf("%s on 4 unknowns: budget %d, want %d", name, got, want)
		}
	}
}

// TestMethodTable pins the table's shape: sorted names, the three direct
// plans, cg alone taking a preconditioner, and the distributed variants.
func TestMethodTable(t *testing.T) {
	if names := Backends(); !sort.StringsAreSorted(names) {
		t.Errorf("Backends() = %v, not sorted", names)
	}
	plans := map[string]PlanOpts{
		"":                 {},
		BackendCholesky:    {},
		BackendCholeskyRCM: {Ordering: OrderRCM},
		BackendCholeskyEnv: {Ordering: OrderRCM, Storage: StorageEnvelope},
	}
	for name, want := range plans {
		if got, ok := PlanOptsFor(name); !ok || got != want {
			t.Errorf("PlanOptsFor(%q) = %+v, %v; want %+v", name, got, ok, want)
		}
	}
	for _, name := range []string{BackendCG, BackendJacobi, BackendSOR, "gauss"} {
		if _, ok := PlanOptsFor(name); ok {
			t.Errorf("PlanOptsFor(%q) reports a direct plan", name)
		}
	}
	distributed := map[string]string{
		"":            "parallel-cg",
		BackendCG:     "parallel-cg",
		BackendJacobi: "parallel-jacobi",
		BackendSOR:    "parallel-multicolor-sor",
	}
	for name, want := range distributed {
		if m, err := Distributed(name, "none"); err != nil || m.Distributed != want {
			t.Errorf("Distributed(%q) = %q, %v; want %q", name, m.Distributed, err, want)
		}
	}
	for _, name := range []string{BackendCholesky, BackendCholeskyRCM, BackendCholeskyEnv, "gauss"} {
		want := fmt.Sprintf(`usage: backend %q has no distributed variant (try cg, jacobi, or sor)`, name)
		if _, err := Distributed(name, ""); fmt.Sprint(err) != want {
			t.Errorf("Distributed(%q): %v, want %s", name, err, want)
		}
	}
	if _, err := Distributed(BackendJacobi, PrecondSSOR); fmt.Sprint(err) != `usage: distributed jacobi has no preconditioned variant ("ssor" requested)` {
		t.Errorf("Distributed(jacobi, ssor): %v", err)
	}
}
