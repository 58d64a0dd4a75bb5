package navm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/errs"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// How an IterCase's solve stops.
const (
	StopConverged = iota // tolerance 1e-10 within MaxIter
	StopExhausted        // an unreachable tolerance and a budget of MaxIter
	StopCancelled        // ctx cancelled at iteration CancelAt (0: before the first)
)

// IterCase is one distributed solve of the differential tests: Method
// (cg, jacobi or sor) on P row blocks of a machine of Clusters clusters
// of PEsPerCluster PEs, stopped as Stop says.
type IterCase struct {
	Method                     string
	P, Clusters, PEsPerCluster int
	Stop, MaxIter, CancelAt    int
}

func (c IterCase) String() string {
	stop := [...]string{"converged", "exhausted", "cancelled"}[c.Stop]
	return fmt.Sprintf("%s P=%d on %dx%d, %s (budget %d, cancel at %d)",
		c.Method, c.P, c.Clusters, c.PEsPerCluster, stop, c.MaxIter, c.CancelAt)
}

// opts returns the options of one run, the context it polls, and the
// context's cancel.
func (c IterCase) opts() (context.Context, context.CancelFunc, linalg.IterOpts) {
	ctx, cancel := context.WithCancel(context.Background())
	o := linalg.IterOpts{Tol: 1e-10, MaxIter: c.MaxIter, Omega: 1.5}
	switch c.Stop {
	case StopExhausted:
		o.Tol = 1e-300
	case StopCancelled:
		if c.CancelAt == 0 {
			cancel()
		}
		o.OnIteration = func(iter int, _ float64) {
			if iter == c.CancelAt {
				cancel()
			}
		}
	}
	return ctx, cancel, o
}

// runtime returns a fresh runtime on the case's machine and its registry.
func (c IterCase) runtime() (*Runtime, *obs.Registry) {
	cfg := arch.DefaultConfig()
	cfg.Clusters, cfg.PEsPerCluster = c.Clusters, c.PEsPerCluster
	rt := NewRuntime(arch.MustNew(cfg))
	reg := obs.New()
	rt.AttachInstrumentation(reg)
	return rt, reg
}

// run solves d on rt by the case's method: the solver, or its oracle.
func (c IterCase) run(rt *Runtime, d *DistSystem, oracle bool) (linalg.Vector, SolveStats, error) {
	ctx, cancel, opts := c.opts()
	defer cancel()
	if !oracle {
		return rt.Solve(ctx, d, c.Method, opts)
	}
	switch c.Method {
	case linalg.BackendCG:
		return rt.oracleParallelCG(ctx, d, opts)
	case linalg.BackendJacobi:
		return rt.oracleParallelJacobi(ctx, d, opts)
	default:
		return rt.oracleParallelMultiColorSOR(ctx, d, linalg.GreedyColoring(d.A), opts)
	}
}

// runOneBlock solves a·x = b on one row block of rt.  SOR sweeps every
// row as one class, in natural order, as the sequential solve does: the
// sor row with its colouring switched off.
func (c IterCase) runOneBlock(rt *Runtime, a *linalg.CSR, b linalg.Vector) (linalg.Vector, SolveStats, error) {
	d, err := Partition(a, b, 1)
	if err != nil {
		panic(err)
	}
	m, err := linalg.Distributed(c.Method, "")
	if err != nil {
		panic(err)
	}
	m.Colored = false
	ctx, cancel, opts := c.opts()
	defer cancel()
	return rt.solve(ctx, d, m, opts)
}

// cholTolerance bounds a converged solve's distance from the cholesky
// answer, relative to that answer's largest entry.  The solves stop at a
// relative residual of 1e-10, and ‖x−x*‖/‖x*‖ ≤ κ(A)·‖r‖/‖b‖.  Over the
// fuzz target's systems (seeds 0..399, every shape; 25 600 systems) the
// worst distance read 3.1e-10 for cg, 2.1e-9 for jacobi and 1.8e-9 for
// sor, so 1e-7 leaves a factor of fifty.
const cholTolerance = 1e-7

// checkIterative runs c on a·x = b three ways and demands:
//   - the solver ≡ its oracle (the solver before it became a call of the
//     linalg kernel): solution bits, iterations, residual bits (but on a
//     cancelled solve, where the oracle reported 0), halo words, flops,
//     makespan, the error's text, every PE's clock, busy cycles and work
//     count, the network's traffic, an empty task table in every kernel
//     and every counter but arch.cycles, which now counts every busy
//     cycle of the machine;
//   - the solve on one row block ≡ the sequential backend: solution,
//     iterations, residual and flops;
//   - a converged solve agrees with cholesky within cholTolerance.
//
// It returns the solve's error.
func checkIterative(t testing.TB, a *linalg.CSR, b linalg.Vector, c IterCase) error {
	t.Helper()
	rt, reg := c.runtime()
	rtOld, regOld := c.runtime()
	d, err := Partition(a, b, c.P)
	if err != nil {
		t.Fatal(err)
	}
	dOld, _ := Partition(a, b, c.P)
	x, st, errNew := c.run(rt, d, false)
	xOld, stOld, errOld := c.run(rtOld, dOld, true)

	if (errNew == nil) != (errOld == nil) || errNew != nil && errNew.Error() != errOld.Error() {
		t.Fatalf("%v: error %v, oracle %v", c, errNew, errOld)
	}
	sameBits(t, fmt.Sprintf("%v: solution", c), x, xOld)
	stWant := stOld
	if errors.Is(errNew, context.Canceled) {
		stWant.ResidualNorm = st.ResidualNorm
	}
	if math.Float64bits(st.ResidualNorm) != math.Float64bits(stWant.ResidualNorm) {
		t.Errorf("%v: residual %v, oracle %v", c, st.ResidualNorm, stWant.ResidualNorm)
	}
	stGot := st
	stGot.ResidualNorm, stWant.ResidualNorm = 0, 0 // compared above, NaNs alike
	if stGot != stWant {
		t.Errorf("%v: stats %+v, oracle %+v", c, st, stOld)
	}
	m, mOld := rt.Machine(), rtOld.Machine()
	var busy int64
	for id := range m.Config().TotalPEs() {
		pe, peOld := m.PE(id), mOld.PE(id)
		if pe.Clock() != peOld.Clock() || pe.BusyCycles() != peOld.BusyCycles() || pe.JobsDone() != peOld.JobsDone() {
			t.Errorf("%v: PE %d clock/busy/jobs %d/%d/%d, oracle %d/%d/%d", c, id,
				pe.Clock(), pe.BusyCycles(), pe.JobsDone(), peOld.Clock(), peOld.BusyCycles(), peOld.JobsDone())
		}
		busy += pe.BusyCycles()
	}
	if got, want := fmt.Sprint(m.Network().TrafficMatrix()), fmt.Sprint(mOld.Network().TrafficMatrix()); got != want {
		t.Errorf("%v: traffic %s, oracle %s", c, got, want)
	}
	if live, liveOld := liveTasks(rt), liveTasks(rtOld); len(live) != 0 || len(liveOld) != 0 {
		t.Errorf("%v: kernels hold tasks %v, oracle's %v", c, live, liveOld)
	}
	snap, snapOld := reg.Snapshot(), regOld.Snapshot()
	for _, ctr := range snapOld.Counters {
		if ctr.Name != obs.ARCHCycles && snap.Counter(ctr.Name) != ctr.Value {
			t.Errorf("%v: counter %s = %d, oracle %d", c, ctr.Name, snap.Counter(ctr.Name), ctr.Value)
		}
	}
	if got := snap.Counter(obs.ARCHCycles); got != busy {
		t.Errorf("%v: arch.cycles = %d, but the PEs were busy %d cycles", c, got, busy)
	}

	rt1, _ := c.runtime()
	x1, st1, err1 := c.runOneBlock(rt1, a, b)
	solver, err := linalg.Backend(c.Method)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel, opts := c.opts()
	xSeq, info, errSeq := solver.Solve(ctx, new(linalg.FactorCache), a, 0, b, nil, nil, opts)
	cancel()
	if (err1 == nil) != (errSeq == nil) {
		t.Fatalf("%v: one block: error %v, sequential %v", c, err1, errSeq)
	}
	sameBits(t, fmt.Sprintf("%v: one block", c), x1, xSeq)
	if st1.Iterations != info.Iterations || st1.Flops != info.Flops ||
		math.Float64bits(st1.ResidualNorm) != math.Float64bits(info.Residual) {
		t.Errorf("%v: one block %d iterations, %d flops, residual %v; sequential %d, %d, %v", c,
			st1.Iterations, st1.Flops, st1.ResidualNorm, info.Iterations, info.Flops, info.Residual)
	}

	if errNew != nil || c.Stop != StopConverged {
		return errNew
	}
	chol, _ := linalg.Backend(linalg.BackendCholesky)
	xc, _, err := chol.Solve(context.Background(), new(linalg.FactorCache), a, 0, b, nil, nil, linalg.IterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d, scale := linalg.MaxAbsDiff(x, xc), linalg.NormInf(xc); d > cholTolerance*scale {
		t.Errorf("%v: %g from cholesky's answer (max |x| %g)", c, d, scale)
	}
	return nil
}

// sameBits fails unless a and b hold the same bits, entry by entry.
func sameBits(t testing.TB, what string, a, b linalg.Vector) {
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

// TestDistributedSolversMatchOracles is the seeded half of the iterative
// differential (FuzzIterativeBlocks is the other): Poisson grids from
// 4×4 to 11×11 with random solutions, every method on 1 to 8 row blocks
// of machines of every shape, each solve converged, out of budget, or
// cancelled.
func TestDistributedSolversMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for n := 4; n <= 11; n++ {
		a := poisson2D(n)
		want := linalg.NewVector(a.N)
		for i := range want {
			want[i] = rng.Float64()*2 - 1
		}
		b := a.MulVec(want, nil, nil)
		for _, method := range []string{linalg.BackendCG, linalg.BackendJacobi, linalg.BackendSOR} {
			// Converged, out of a budget of 1..30, cancelled before
			// the first iteration, cancelled at 1..15 (seen at
			// iteration 17 unless the solve converged first).
			stops := [][3]int{
				{StopConverged, 5000, 0}, {StopExhausted, 1 + rng.Intn(30), 0},
				{StopCancelled, 5000, 0}, {StopCancelled, 5000, 1 + rng.Intn(15)},
			}
			for _, stop := range stops {
				c := IterCase{
					Method: method, P: 1 + rng.Intn(8),
					Clusters: 1 + rng.Intn(4), PEsPerCluster: 2 + rng.Intn(4),
					Stop: stop[0], MaxIter: stop[1], CancelAt: stop[2],
				}
				err := checkIterative(t, a, b, c)
				switch {
				case c.Stop == StopConverged && err != nil,
					c.Stop == StopExhausted && !errors.Is(err, linalg.ErrNoConvergence),
					c.Stop == StopCancelled && c.CancelAt == 0 && !errors.Is(err, errs.ErrCancelled),
					c.Stop == StopCancelled && err != nil && !errors.Is(err, errs.ErrCancelled):
					t.Errorf("%v: err = %v", c, err)
				}
			}
		}
	}
}

// TestKernelCyclesMatchesOracle: KernelCycles prices the blocked
// kernels' phases as it priced its own loops.
func TestKernelCyclesMatchesOracle(t *testing.T) {
	a, b, _ := testSystem(8)
	for _, p := range []int{1, 3, 8, 16} {
		c := IterCase{Clusters: 4, PEsPerCluster: 6}
		rt, _ := c.runtime()
		rtOld, _ := c.runtime()
		d, _ := Partition(a, b, p)
		s, dt, ax, err := rt.KernelCycles(d)
		if err != nil {
			t.Fatal(err)
		}
		so, dto, axo, err := rtOld.oracleKernelCycles(d)
		if err != nil {
			t.Fatal(err)
		}
		if s != so || dt != dto || ax != axo {
			t.Errorf("P=%d: spmv/dot/axpy %d/%d/%d cycles, oracle %d/%d/%d", p, s, dt, ax, so, dto, axo)
		}
	}
}

// TestEveryExitReportsItsCost: a zero right-hand side and a CG breakdown
// end a distributed solve early, and still report its workers, flops and
// makespan, and add the flops to navm.flops.
func TestEveryExitReportsItsCost(t *testing.T) {
	a, _, _ := testSystem(4)
	negI, err := linalg.NewCSRFromTriplets(3, []linalg.Triplet{{Row: 0, Col: 0, Val: -1}, {Row: 1, Col: 1, Val: -1}, {Row: 2, Col: 2, Val: -1}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		a      *linalg.CSR
		b      linalg.Vector
		method string
	}{
		{"cg zero load", a, linalg.NewVector(a.N), linalg.BackendCG},
		{"jacobi zero load", a, linalg.NewVector(a.N), linalg.BackendJacobi},
		{"sor zero load", a, linalg.NewVector(a.N), linalg.BackendSOR},
		{"cg breakdown", negI, linalg.Vector{1, 1, 1}, linalg.BackendCG},
	}
	for _, tc := range cases {
		c := IterCase{Method: tc.method, P: 3, Clusters: 2, PEsPerCluster: 4, MaxIter: 100}
		rt, reg := c.runtime()
		d, _ := Partition(tc.a, tc.b, c.P)
		_, st, err := c.run(rt, d, false)
		if (err != nil) != (tc.name == "cg breakdown") {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		if st.Workers != 3 || st.Flops == 0 || st.Makespan == 0 {
			t.Errorf("%s: stats %+v", tc.name, st)
		}
		if got := reg.Counter(obs.NAVMFlops).Load(); got != st.Flops {
			t.Errorf("%s: navm.flops = %d, want the solve's %d", tc.name, got, st.Flops)
		}
	}
}

// budgetSystem is linalg's budget fixture: an n×n grid system no method
// solves to an unreachable tolerance in finite steps, the Poisson stencil
// plus a skew-symmetric coupling of ±½ between neighbours (CG's
// recurrences assume symmetry, so its residual stalls), with load e₀.
func budgetSystem(n int) (*linalg.CSR, linalg.Vector) {
	var ts []linalg.Triplet
	for i := 0; i < n*n; i++ {
		ts = append(ts, linalg.Triplet{Row: i, Col: i, Val: 4})
		for _, nb := range []struct {
			col  int
			in   bool
			coef float64
		}{{i - n, i >= n, -0.5}, {i + n, i < n*n-n, -1.5}, {i - 1, i%n > 0, -0.5}, {i + 1, i%n < n-1, -1.5}} {
			if nb.in {
				ts = append(ts, linalg.Triplet{Row: i, Col: nb.col, Val: nb.coef})
			}
		}
	}
	a, err := linalg.NewCSRFromTriplets(n*n, ts)
	if err != nil {
		panic(err)
	}
	b := linalg.NewVector(n * n)
	b[0] = 1
	return a, b
}

// TestDefaultBudgets pins the default budget of each distributed method,
// the sequential method's: cg 10·n floored at 200, jacobi 200·n and sor
// 100·n, read off finite solves of budgetSystem at a tolerance no
// residual meets, which so run their whole budget; and the MaxIterCeiling
// cap, which only a system of over 20 000 unknowns reaches, off the
// defaults the cg row gives.
func TestDefaultBudgets(t *testing.T) {
	for _, c := range []struct {
		method  string
		n, want int
	}{
		{linalg.BackendCG, 2, 200},
		{linalg.BackendCG, 10, 1000},
		{linalg.BackendJacobi, 2, 800},
		{linalg.BackendSOR, 2, 400},
	} {
		a, b := budgetSystem(c.n)
		d, _ := Partition(a, b, 2)
		rt := newSolveRuntime(t, 1, 3)
		_, st, err := rt.Solve(context.Background(), d, c.method, linalg.IterOpts{Tol: math.SmallestNonzeroFloat64})
		var ce *linalg.ConvergenceError
		if !errors.As(err, &ce) || ce.Diverged || ce.Iterations != c.want || st.Iterations != c.want {
			t.Errorf("%s on %d unknowns: %v after %d iterations, want a budget of %d", c.method, a.N, err, st.Iterations, c.want)
		}
	}
	cg, _ := linalg.Distributed(linalg.BackendCG, "")
	if got := linalg.IterDefaults(linalg.IterOpts{}, 1_000_000, cg.Budget).MaxIter; got != linalg.MaxIterCeiling {
		t.Errorf("huge-n budget = %d, want the %d ceiling", got, linalg.MaxIterCeiling)
	}
}
