package linalg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestKernelIterationsAllocationFree pins down the workspace contract of
// the iterative kernels: with a warm IterWork, the allocation count of a
// solve must not grow with its iteration count — everything a kernel
// allocates (the returned solution, a convergence error) is
// per-invocation.  The tolerance Tol=0 is unreachable, so MaxIter sets
// the iteration count exactly.
func TestKernelIterationsAllocationFree(t *testing.T) {
	m := poisson2D(12)
	b := NewVector(m.N)
	for i := range b {
		b[i] = 1
	}
	jac, err := NewJacobiPrecond(m)
	if err != nil {
		t.Fatal(err)
	}
	ssor, err := NewSSORPrecond(m, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, f func(opts IterOpts, ws *IterWork) error) {
		t.Run(name, func(t *testing.T) {
			ws := &IterWork{}
			allocs := func(iters int) float64 {
				opts := IterOpts{Tol: 1e-300, MaxIter: iters, Omega: 1.5}
				return testing.AllocsPerRun(10, func() {
					if err := f(opts, ws); err != nil && !errors.Is(err, ErrNoConvergence) {
						t.Fatal(err)
					}
				})
			}
			few, many := allocs(2), allocs(26)
			if many != few {
				t.Errorf("iterations allocate: 2 iters -> %.1f allocs/op, 26 iters -> %.1f allocs/op", few, many)
			}
		})
	}
	ctx := context.Background()
	run("cg", func(opts IterOpts, ws *IterWork) error {
		_, _, _, err := CG(ctx, m, b, nil, opts, oneBlock(m.N), nil, ws)
		return err
	})
	run("cg+jacobi", func(opts IterOpts, ws *IterWork) error {
		_, _, _, err := CG(ctx, m, b, jac, opts, oneBlock(m.N), nil, ws)
		return err
	})
	run("cg+ssor", func(opts IterOpts, ws *IterWork) error {
		_, _, _, err := CG(ctx, m, b, ssor, opts, oneBlock(m.N), nil, ws)
		return err
	})
	run("jacobi", func(opts IterOpts, ws *IterWork) error {
		_, _, _, err := Jacobi(ctx, m, b, opts, oneBlock(m.N), nil, ws)
		return err
	})
	run("sor", func(opts IterOpts, ws *IterWork) error {
		_, _, _, err := SOR(ctx, m, b, ws.natural(m.N), opts, oneBlock(m.N), nil, ws)
		return err
	})
}

// TestWarmResolveKernelsAllocationFree pins the two linalg kernels of a
// warm re-solve to zero allocations when handed their output: the
// envelope substitution (into a caller's vector and in place) and the
// residual's SpMV.
func TestWarmResolveKernelsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n = 61
	first := make([]int, n)
	for i := range first {
		first[i] = max(0, i-rng.Intn(9))
	}
	e := randomEnvelope(rng, first)
	if err := e.CholeskyFactorInPlace(nil); err != nil {
		t.Fatal(err)
	}
	rhs, out := randomRHS(rng, n), NewVector(n)
	st := &Stats{}
	if avg := testing.AllocsPerRun(20, func() { e.CholeskySolveInto(rhs, out, st) }); avg != 0 {
		t.Errorf("CholeskySolveInto into a caller's vector: %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { e.CholeskySolveInto(out, out, st) }); avg != 0 {
		t.Errorf("CholeskySolveInto in place: %.1f allocs/op, want 0", avg)
	}
	m := poisson2D(9)
	x, y := randomRHS(rng, m.N), NewVector(m.N)
	if avg := testing.AllocsPerRun(20, func() { m.MulVec(x, y, st) }); avg != 0 {
		t.Errorf("CSR.MulVec into a caller's vector: %.1f allocs/op, want 0", avg)
	}
}

// TestEngineBackendsReuseWorkspaces checks the registry path end to end:
// a warm engine solve allocates a small per-invocation constant (the
// solution, Info bookkeeping, a pooled-workspace header at worst), far
// below one allocation per iteration — the regression this guards is a
// kernel quietly reallocating its scratch vectors or diagonal each call.
func TestEngineBackendsReuseWorkspaces(t *testing.T) {
	m := poisson2D(12)
	b := NewVector(m.N)
	for i := range b {
		b[i] = 1
	}
	const iters = 40
	for _, backend := range []string{BackendCG, BackendJacobi, BackendSOR} {
		t.Run(backend, func(t *testing.T) {
			s, err := Backend(backend)
			if err != nil {
				t.Fatal(err)
			}
			opts := IterOpts{Tol: 1e-300, MaxIter: iters}
			avg := testing.AllocsPerRun(10, func() {
				if _, _, err := s.Solve(context.Background(), m, b, opts); err != nil && !errors.Is(err, ErrNoConvergence) {
					t.Fatal(err)
				}
			})
			// Well under one allocation per iteration: the scratch
			// vectors are reused, not rebuilt.
			if avg >= iters {
				t.Errorf("engine %s solve: %.1f allocs/op for %d iterations", backend, avg, iters)
			}
		})
	}
}

// TestIterWorkGrow covers the buffer-reuse helper directly.
func TestIterWorkGrow(t *testing.T) {
	v := grow(nil, 4)
	if len(v) != 4 {
		t.Fatalf("grow(nil, 4) len %d", len(v))
	}
	v[0] = 7
	w := grow(v, 3)
	if &w[0] != &v[0] {
		t.Error("grow reallocated despite sufficient capacity")
	}
	if w[0] != 0 {
		t.Error("grow did not zero reused storage")
	}
	u := grow(v, 100)
	if len(u) != 100 {
		t.Errorf("grow(_, 100) len %d", len(u))
	}
	for i, x := range u {
		if x != 0 {
			t.Fatalf("grown vector not zero at %d: %v", i, fmt.Sprint(x))
		}
	}
}
