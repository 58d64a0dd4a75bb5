package navm_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/fem"
	"repro/internal/linalg"
	"repro/internal/navm"
)

// BenchmarkIterativeSolve times the iterative methods on E16's 144-dof
// plate (8×8 cells, clamped on the left, end load), each for a fixed 80
// iterations: the sequential backends cg, cg+ssor, jacobi and sor, and
// cg, jacobi and multi-colour sor on 4 row blocks of a fresh default
// machine per solve (the machine's link schedules grow with every solve
// it runs, so one machine would time later solves longer).
func BenchmarkIterativeSolve(b *testing.B) {
	o := fem.RectGridOpts{NX: 8, NY: 8, W: 8, H: 8, Mat: fem.Steel(), ClampLeft: true}
	m, err := fem.RectGrid("plate", o)
	if err != nil {
		b.Fatal(err)
	}
	asm, err := fem.Assemble(m)
	if err != nil {
		b.Fatal(err)
	}
	k := asm.K
	rhs, err := m.RHS(fem.EndLoad("tip", o, 0, -1000), asm.Index, len(asm.Free))
	if err != nil {
		b.Fatal(err)
	}
	opts := linalg.IterOpts{Tol: 1e-300, MaxIter: 80, Omega: 1.5}
	ran := func(b *testing.B, err error) {
		if err != nil && !errors.Is(err, linalg.ErrNoConvergence) {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, c := range []struct{ name, backend, precond string }{
		{"cg", linalg.BackendCG, ""},
		{"cg+ssor", linalg.BackendCG, linalg.PrecondSSOR},
		{"jacobi", linalg.BackendJacobi, ""},
		{"sor", linalg.BackendSOR, ""},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := linalg.Backend(c.backend)
			if err != nil {
				b.Fatal(err)
			}
			so := opts
			so.Precond = c.precond
			for b.Loop() {
				_, _, err := s.Solve(ctx, k, rhs, so)
				ran(b, err)
			}
		})
	}
	for _, method := range []string{linalg.BackendCG, linalg.BackendJacobi, linalg.BackendSOR} {
		b.Run(method+"/parallel-4", func(b *testing.B) {
			d, err := navm.Partition(k, rhs, 4)
			if err != nil {
				b.Fatal(err)
			}
			col := linalg.GreedyColoring(k)
			for b.Loop() {
				rt := navm.NewRuntime(arch.MustNew(arch.DefaultConfig()))
				switch method {
				case linalg.BackendCG:
					_, _, err = rt.ParallelCG(ctx, d, opts)
				case linalg.BackendJacobi:
					_, _, err = rt.ParallelJacobi(ctx, d, opts)
				default:
					_, _, err = rt.ParallelMultiColorSOR(ctx, d, col, opts)
				}
				ran(b, err)
			}
		})
	}
}
