package linalg

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// seqCG, seqJacobi, and seqSOR run the kernels as the sequential
// backends do (one block, no cost hook) in the historic (x, iters, err)
// shape the kernel-level tests in this package assert against; the
// engine API itself is covered by engine_test.go.
func seqCG(a *CSR, b Vector, opts IterOpts, st *Stats) (Vector, int, error) {
	x, iters, _, err := CG(context.Background(), a, b, nil, opts, oneBlock(a.N), st, nil)
	return x, iters, err
}

func seqJacobi(a *CSR, b Vector, opts IterOpts, st *Stats) (Vector, int, error) {
	x, iters, _, err := Jacobi(context.Background(), a, b, opts, oneBlock(a.N), st, nil)
	return x, iters, err
}

func seqSOR(a *CSR, b Vector, opts IterOpts, st *Stats) (Vector, int, error) {
	ws := &IterWork{}
	x, iters, _, err := SOR(context.Background(), a, b, ws.natural(a.N), opts, oneBlock(a.N), st, ws)
	return x, iters, err
}

// multiColorSOR runs the SOR kernel over c's colour classes, one block,
// after checking the colouring as the NAVM solver does.
func multiColorSOR(a *CSR, b Vector, c *Coloring, opts IterOpts, st *Stats) (Vector, int, error) {
	if err := c.Validate(a); err != nil {
		return nil, 0, err
	}
	x, iters, _, err := SOR(context.Background(), a, b, c.Rows, opts, oneBlock(a.N), st, nil)
	return x, iters, err
}

func solveAllWaysSystem(t *testing.T, n int) (*CSR, Vector, Vector) {
	t.Helper()
	m := poisson2D(n)
	want := NewVector(m.N)
	rng := rand.New(rand.NewSource(7))
	for i := range want {
		want[i] = rng.Float64()*2 - 1
	}
	b := m.MulVec(want, nil, nil)
	return m, b, want
}

func TestCGSolvesPoisson(t *testing.T) {
	m, b, want := solveAllWaysSystem(t, 8)
	st := &Stats{}
	x, iters, err := seqCG(m, b, DefaultIterOpts(m.N), st)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, want); d > 1e-6 {
		t.Errorf("CG error %g", d)
	}
	if iters <= 0 || iters > m.N {
		t.Errorf("CG iterations = %d (CG must finish within n for SPD)", iters)
	}
	if st.Flops == 0 || st.Iterations != iters {
		t.Errorf("stats = %+v, iters = %d", *st, iters)
	}
}

func TestCGZeroRHS(t *testing.T) {
	m, _, _ := solveAllWaysSystem(t, 4)
	x, iters, err := seqCG(m, NewVector(m.N), DefaultIterOpts(m.N), nil)
	if err != nil || iters != 0 {
		t.Fatalf("zero rhs: err=%v iters=%d", err, iters)
	}
	if NormInf(Vector(x)) != 0 {
		t.Error("zero rhs should give zero solution")
	}
}

func TestCGBreakdownOnIndefinite(t *testing.T) {
	// -I is symmetric negative definite: pᵀAp < 0 immediately.
	m, err := NewCSRFromTriplets(3, []Triplet{{0, 0, -1}, {1, 1, -1}, {2, 2, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := seqCG(m, Vector{1, 1, 1}, DefaultIterOpts(3), nil); err == nil {
		t.Error("CG on negative definite matrix did not report breakdown")
	}
}

func TestCGNoConvergenceBudget(t *testing.T) {
	m, b, _ := solveAllWaysSystem(t, 8)
	opts := DefaultIterOpts(m.N)
	opts.MaxIter = 1
	opts.Tol = 1e-14
	_, _, err := seqCG(m, b, opts, nil)
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("want ErrNoConvergence, got %v", err)
	}
}

func TestCGIterationCallback(t *testing.T) {
	m, b, _ := solveAllWaysSystem(t, 4)
	var history []float64
	opts := DefaultIterOpts(m.N)
	opts.OnIteration = func(iter int, resid float64) { history = append(history, resid) }
	_, iters, err := seqCG(m, b, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != iters {
		t.Errorf("callback fired %d times for %d iterations", len(history), iters)
	}
	if history[len(history)-1] > opts.Tol {
		t.Errorf("final residual %g above tol", history[len(history)-1])
	}
}

func TestJacobiSolvesPoisson(t *testing.T) {
	m, b, want := solveAllWaysSystem(t, 5)
	opts := DefaultIterOpts(m.N)
	opts.Tol = 1e-10
	opts.MaxIter = 20000
	x, iters, err := seqJacobi(m, b, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, want); d > 1e-7 {
		t.Errorf("Jacobi error %g after %d iters", d, iters)
	}
}

func TestJacobiZeroDiagonal(t *testing.T) {
	m, err := NewCSRFromTriplets(2, []Triplet{{0, 1, 1}, {1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := seqJacobi(m, Vector{1, 1}, DefaultIterOpts(2), nil); err == nil {
		t.Error("Jacobi with zero diagonal did not fail")
	}
}

func TestJacobiZeroRHS(t *testing.T) {
	m, _, _ := solveAllWaysSystem(t, 3)
	x, iters, err := seqJacobi(m, NewVector(m.N), DefaultIterOpts(m.N), nil)
	if err != nil || iters != 0 || NormInf(Vector(x)) != 0 {
		t.Errorf("zero rhs: x=%v iters=%d err=%v", x, iters, err)
	}
}

func TestSORSolvesPoissonFasterThanJacobi(t *testing.T) {
	m, b, want := solveAllWaysSystem(t, 5)
	opts := DefaultIterOpts(m.N)
	opts.Tol = 1e-9
	opts.MaxIter = 20000

	_, jIters, err := seqJacobi(m, b, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, sIters, err := seqSOR(m, b, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, want); d > 1e-6 {
		t.Errorf("SOR error %g", d)
	}
	if sIters >= jIters {
		t.Errorf("SOR (%d iters) should beat Jacobi (%d iters) on Poisson", sIters, jIters)
	}
}

func TestSORGaussSeidelOmegaOne(t *testing.T) {
	m, b, want := solveAllWaysSystem(t, 4)
	opts := DefaultIterOpts(m.N)
	opts.Omega = 1.0
	opts.MaxIter = 20000
	x, _, err := seqSOR(m, b, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(x, want); d > 1e-6 {
		t.Errorf("Gauss-Seidel error %g", d)
	}
}

func TestSORRejectsBadOmega(t *testing.T) {
	m, b, _ := solveAllWaysSystem(t, 3)
	for _, w := range []float64{0, -1, 2, 2.5} {
		opts := DefaultIterOpts(m.N)
		opts.Omega = w
		if _, _, err := seqSOR(m, b, opts, nil); err == nil {
			t.Errorf("SOR accepted omega = %g", w)
		}
	}
}

func TestSORZeroDiagonal(t *testing.T) {
	m, err := NewCSRFromTriplets(2, []Triplet{{0, 1, 1}, {1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := seqSOR(m, Vector{1, 1}, DefaultIterOpts(2), nil); err == nil {
		t.Error("SOR with zero diagonal did not fail")
	}
}

func TestResidualZeroForExactSolution(t *testing.T) {
	m, b, want := solveAllWaysSystem(t, 4)
	if r := Residual(m, want, b, nil, nil); r > 1e-10 {
		t.Errorf("residual of exact solution = %g", r)
	}
}

func TestAllSolversAgree(t *testing.T) {
	m, b, _ := solveAllWaysSystem(t, 6)
	opts := DefaultIterOpts(m.N)
	opts.Tol = 1e-10
	opts.MaxIter = 50000

	xc, _, err := seqCG(m, b, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	xj, _, err := seqJacobi(m, b, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	xs, _, err := seqSOR(m, b, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := m.ToBanded().SolveCholesky(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(xc, xb); d > 1e-6 {
		t.Errorf("CG vs Cholesky differ by %g", d)
	}
	if d := MaxAbsDiff(xj, xb); d > 1e-6 {
		t.Errorf("Jacobi vs Cholesky differ by %g", d)
	}
	if d := MaxAbsDiff(xs, xb); d > 1e-6 {
		t.Errorf("SOR vs Cholesky differ by %g", d)
	}
}

// Property: CG solves random SPD diagonally-perturbed Laplacians and the
// solution matches the direct banded solve.
func TestQuickCGMatchesDirect(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%10 + 2
		rng := rand.New(rand.NewSource(seed))
		ts := poisson1D(n)
		for i := 0; i < n; i++ {
			ts = append(ts, Triplet{i, i, rng.Float64()}) // keep SPD
		}
		m, err := NewCSRFromTriplets(n, ts)
		if err != nil {
			return false
		}
		b := NewVector(n)
		for i := range b {
			b[i] = rng.Float64()*2 - 1
		}
		x, _, err := seqCG(m, b, DefaultIterOpts(n), nil)
		if err != nil {
			return false
		}
		xd, err := m.ToBanded().SolveCholesky(b, nil)
		if err != nil {
			return false
		}
		return MaxAbsDiff(x, xd) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
