package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestIterativeKernelsMatchOracles runs the blocked kernels as the
// sequential backends do (one block, no hook) against the solvers they
// replaced (iterative_oracle_test.go) on seeded systems — Poisson grids
// of 2×2 to 11×11 and random sparse SPD matrices — each solve converged,
// out of budget, or cancelled, and demands equal solution bits,
// iteration counts, residual bits and error texts.  Flops differ only as
// the oracles' comment says: the oracles count each Norm2's square root
// (cg: one; jacobi and sor: one per iteration and one for ‖b‖), and a cg
// out of budget also counts its last direction update (2n).  The colour
// classes of GreedyColoring run against the multi-colour SOR oracle the
// same way (no cancellation: it takes no context).
func TestIterativeKernelsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var systems []*CSR
	for n := 2; n <= 11; n++ {
		systems = append(systems, poisson2D(n))
	}
	for range 10 {
		systems = append(systems, randomSPD(rng, 2+rng.Intn(40)))
	}
	jac := func(a *CSR) Preconditioner { m, _ := NewJacobiPrecond(a); return m }
	ssor := func(a *CSR) Preconditioner { m, _ := NewSSORPrecond(a, 1.5); return m }
	for si, a := range systems {
		b := NewVector(a.N)
		for i := range b {
			b[i] = rng.Float64()*2 - 1
		}
		for _, stop := range []struct {
			name     string
			maxIter  int
			tol      float64
			cancelAt int
		}{
			{"converged", 5000, 1e-10, -1},
			{"exhausted", 1 + rng.Intn(20), 1e-300, -1},
			{"cancelled first", 5000, 1e-10, 0},
			{"cancelled", 5000, 1e-14, 1 + rng.Intn(15)},
		} {
			name := fmt.Sprintf("system %d (order %d), %s", si, a.N, stop.name)
			opts := func() (context.Context, context.CancelFunc, IterOpts) {
				ctx, cancel := context.WithCancel(context.Background())
				o := IterOpts{Tol: stop.tol, MaxIter: stop.maxIter, Omega: 1.5}
				if stop.cancelAt == 0 {
					cancel()
				}
				o.OnIteration = func(iter int, _ float64) {
					if iter == stop.cancelAt {
						cancel()
					}
				}
				return ctx, cancel, o
			}
			type run func(ctx context.Context, o IterOpts, st *Stats) (Vector, int, float64, error)
			same := func(method string, extra func(iters int) int64, got, want run) {
				t.Helper()
				var st, stOld Stats
				ctx, cancel, o := opts()
				x, iters, resid, err := got(ctx, o, &st)
				cancel()
				ctx, cancel, o = opts()
				xOld, itersOld, residOld, errOld := want(ctx, o, &stOld)
				cancel()
				what := name + ", " + method
				if (err == nil) != (errOld == nil) || err != nil && err.Error() != errOld.Error() {
					t.Fatalf("%s: error %v, oracle %v", what, err, errOld)
				}
				sameVectorBits(t, what, x, xOld)
				if iters != itersOld || math.Float64bits(resid) != math.Float64bits(residOld) {
					t.Errorf("%s: %d iterations, residual %v; oracle %d, %v", what, iters, resid, itersOld, residOld)
				}
				if st.Flops+extra(iters) != stOld.Flops || st.Iterations != stOld.Iterations {
					t.Errorf("%s: %d flops, %d iterations counted; oracle %d, %d", what, st.Flops, st.Iterations, stOld.Flops, stOld.Iterations)
				}
			}
			cgExtra := func(iters int) int64 {
				if stop.name == "exhausted" {
					return int64(1 + 2*a.N)
				}
				return 1
			}
			perIter := func(iters int) int64 { return int64(iters + 1) }
			for _, m := range []Preconditioner{nil, jac(a), ssor(a)} {
				same(cgName(m), cgExtra, func(ctx context.Context, o IterOpts, st *Stats) (Vector, int, float64, error) {
					return CG(ctx, a, b, m, o, oneBlock(a.N), st, nil)
				}, func(ctx context.Context, o IterOpts, st *Stats) (Vector, int, float64, error) {
					return oracleCG(ctx, a, b, m, o, st, nil)
				})
			}
			same(BackendJacobi, perIter, func(ctx context.Context, o IterOpts, st *Stats) (Vector, int, float64, error) {
				return Jacobi(ctx, a, b, o, oneBlock(a.N), st, nil)
			}, func(ctx context.Context, o IterOpts, st *Stats) (Vector, int, float64, error) {
				return oracleJacobi(ctx, a, b, o, st, nil)
			})
			same(BackendSOR, perIter, func(ctx context.Context, o IterOpts, st *Stats) (Vector, int, float64, error) {
				ws := &IterWork{}
				return SOR(ctx, a, b, ws.natural(a.N), o, oneBlock(a.N), st, ws)
			}, func(ctx context.Context, o IterOpts, st *Stats) (Vector, int, float64, error) {
				return oracleSOR(ctx, a, b, o, st, nil)
			})

			if stop.cancelAt >= 0 {
				continue
			}
			c := GreedyColoring(a)
			var st, stOld Stats
			_, cancel, o := opts()
			cancel() // the multi-colour oracle polls no context
			x, iters, _, err := SOR(context.Background(), a, b, c.Rows, o, oneBlock(a.N), &st, nil)
			xOld, itersOld, errOld := oracleMultiColorSOR(a, b, c, o, &stOld)
			if (err == nil) != (errOld == nil) || err != nil && !(errors.Is(err, ErrNoConvergence) && errors.Is(errOld, ErrNoConvergence)) {
				t.Fatalf("%s, multi-colour sor: error %v, oracle %v", name, err, errOld)
			}
			sameVectorBits(t, name+", multi-colour sor", x, xOld)
			if iters != itersOld || st.Flops+perIter(iters) != stOld.Flops {
				t.Errorf("%s, multi-colour sor: %d iterations, %d flops; oracle %d, %d", name, iters, st.Flops, itersOld, stOld.Flops)
			}
		}
	}
}

// randomSPD is a random sparse symmetric matrix of order n made
// positive definite by a diagonal above each row's off-diagonal sum.
func randomSPD(rng *rand.Rand, n int) *CSR {
	var ts []Triplet
	rowSum := make([]float64, n)
	for range 2 * n {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := -rng.Float64()
		ts = append(ts, Triplet{i, j, v}, Triplet{j, i, v})
		rowSum[i] -= v
		rowSum[j] -= v
	}
	for i := range n {
		ts = append(ts, Triplet{i, i, rowSum[i] + 0.1 + rng.Float64()})
	}
	a, err := NewCSRFromTriplets(n, ts)
	if err != nil {
		panic(err)
	}
	return a
}

// sameVectorBits fails unless a and b hold the same bits, entry by entry.
func sameVectorBits(t *testing.T, what string, a, b Vector) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d entries against %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: entry %d is %v against %v", what, i, a[i], b[i])
		}
	}
}
