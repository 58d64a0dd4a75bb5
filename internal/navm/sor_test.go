package navm

import (
	"context"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/linalg"
	"repro/internal/obs"
)

func TestParallelMultiColorSORMatchesSequential(t *testing.T) {
	a, b, want := testSystem(6)
	rt := newSolveRuntime(t, 2, 5)
	d, _ := Partition(a, b, 4)
	c := linalg.GreedyColoring(a)
	if c.NumColors != 2 {
		t.Fatalf("expected red/black, got %d colors", c.NumColors)
	}
	opts := linalg.IterDefaults(linalg.IterOpts{}, a.N, 10)
	opts.Tol = 1e-9
	opts.MaxIter = 50000
	x, stats, err := rt.Solve(context.Background(), d, linalg.BackendSOR, opts)
	if err != nil {
		t.Fatal(err)
	}
	if diff := linalg.MaxAbsDiff(x, want); diff > 1e-6 {
		t.Errorf("parallel multi-colour SOR error %g", diff)
	}
	if stats.Iterations == 0 || stats.Flops == 0 || stats.Makespan == 0 {
		t.Errorf("stats %+v", stats)
	}
	// The parallel arithmetic is the sequential SOR kernel's over the
	// same colour classes, bit for bit.
	one := linalg.Blocks{Lo: []int{0}, Hi: []int{a.N}}
	xSeq, seqIters, _, err := linalg.SOR(context.Background(), a, b, nil, c.Rows, opts, one, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xSeq[i]) {
			t.Fatalf("x[%d] = %v in parallel, %v sequentially", i, x[i], xSeq[i])
		}
	}
	if stats.Iterations != seqIters {
		t.Errorf("parallel %d vs sequential %d iterations", stats.Iterations, seqIters)
	}
}

func TestParallelMultiColorSORBeatsJacobiIterations(t *testing.T) {
	a, b, _ := testSystem(6)
	opts := linalg.IterDefaults(linalg.IterOpts{}, a.N, 10)
	opts.Tol = 1e-8
	opts.MaxIter = 100000

	rt1 := newSolveRuntime(t, 2, 5)
	d1, _ := Partition(a, b, 4)
	_, jStats, err := rt1.Solve(context.Background(), d1, linalg.BackendJacobi, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := newSolveRuntime(t, 2, 5)
	d2, _ := Partition(a, b, 4)
	_, sStats, err := rt2.Solve(context.Background(), d2, linalg.BackendSOR, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sStats.Iterations >= jStats.Iterations {
		t.Errorf("multi-colour SOR (%d iters) should beat Jacobi (%d iters)",
			sStats.Iterations, jStats.Iterations)
	}
}

func TestParallelMultiColorSORErrors(t *testing.T) {
	a, b, _ := testSystem(4)
	rt := newSolveRuntime(t, 1, 3)
	d, _ := Partition(a, b, 2)

	opts := linalg.IterDefaults(linalg.IterOpts{}, a.N, 10)
	opts.Omega = -1
	if _, _, err := rt.Solve(context.Background(), d, linalg.BackendSOR, opts); err == nil {
		t.Error("bad omega accepted")
	}
	// Budget exhaustion.
	opts = linalg.IterDefaults(linalg.IterOpts{}, a.N, 10)
	opts.MaxIter = 1
	opts.Tol = 1e-15
	if _, _, err := rt.Solve(context.Background(), d, linalg.BackendSOR, opts); err == nil {
		t.Error("budget exhaustion not reported")
	}
	// Zero RHS short-circuits.
	d0, _ := Partition(a, linalg.NewVector(a.N), 2)
	if x, stats, err := rt.Solve(context.Background(), d0, linalg.BackendSOR, linalg.IterDefaults(linalg.IterOpts{}, a.N, 10)); err != nil || stats.Iterations != 0 || linalg.NormInf(x) != 0 {
		t.Error("zero rhs mishandled")
	}
}

func TestKernelCyclesShapes(t *testing.T) {
	a, b, _ := testSystem(8)
	run := func(p int) (spmv, dot, axpy int64) {
		rt := newSolveRuntime(t, 4, 6)
		d, _ := Partition(a, b, p)
		s, dt, ax, err := rt.KernelCycles(d)
		if err != nil {
			t.Fatal(err)
		}
		return s, dt, ax
	}
	s1, _, a1 := run(1)
	s16, _, a16 := run(16)
	if a16 >= a1 {
		t.Errorf("axpy did not scale: %d -> %d", a1, a16)
	}
	if s16 >= s1 {
		t.Errorf("spmv did not scale: %d -> %d", s1, s16)
	}
	// Axpy scales better than spmv (no halo, no barrier).
	if float64(a1)/float64(a16) <= float64(s1)/float64(s16) {
		t.Errorf("axpy speedup %g not above spmv speedup %g",
			float64(a1)/float64(a16), float64(s1)/float64(s16))
	}
}

func TestWorkerPEsLeastLoadedAndDisjoint(t *testing.T) {
	rt := newSolveRuntime(t, 4, 5) // 16 workers
	m := rt.Machine()
	a, b, _ := testSystem(6)
	d, _ := Partition(a, b, 4)
	// First solve occupies 4 workers.
	if _, _, err := rt.Solve(context.Background(), d, linalg.BackendCG, linalg.IterDefaults(linalg.IterOpts{}, a.N, 10)); err != nil {
		t.Fatal(err)
	}
	busyBefore := map[int]int64{}
	for _, pe := range m.LiveWorkers() {
		busyBefore[pe.ID] = pe.BusyCycles()
	}
	// Second solve must land on previously idle workers.
	d2, _ := Partition(a, b, 4)
	if _, _, err := rt.Solve(context.Background(), d2, linalg.BackendCG, linalg.IterDefaults(linalg.IterOpts{}, a.N, 10)); err != nil {
		t.Fatal(err)
	}
	newlyBusy := 0
	for _, pe := range m.LiveWorkers() {
		if busyBefore[pe.ID] == 0 && pe.BusyCycles() > 0 {
			newlyBusy++
		}
	}
	if newlyBusy < 4 {
		t.Errorf("second solve reused loaded PEs; only %d fresh PEs engaged", newlyBusy)
	}
}

// TestSolversLeaveNoTaskInKernels reads the kernels' task tables, the one
// task registry: each distributed solver initiates its tasks there, and
// after the solve, converged or out of budget, no kernel still holds one.
func TestSolversLeaveNoTaskInKernels(t *testing.T) {
	a, b, _ := testSystem(6)
	for _, name := range []string{linalg.BackendCG, linalg.BackendJacobi, linalg.BackendSOR} {
		for _, exhausted := range []bool{false, true} {
			cfg := arch.DefaultConfig()
			cfg.Clusters, cfg.PEsPerCluster = 2, 5
			rt := NewRuntime(arch.MustNew(cfg))
			reg := obs.New()
			rt.AttachInstrumentation(reg)
			d, _ := Partition(a, b, 4)
			opts := linalg.IterDefaults(linalg.IterOpts{}, a.N, 10)
			opts.Tol, opts.MaxIter = 1e-9, 50000
			if exhausted {
				opts.MaxIter = 2
			}
			_, _, err := rt.Solve(context.Background(), d, name, opts)
			if exhausted != (err != nil) {
				t.Errorf("%s (budget exhausted %v): err = %v", name, exhausted, err)
			}
			if got := reg.Counter(obs.SPVMTasksInitiated).Load(); got != 4 {
				t.Errorf("%s (budget exhausted %v): %d solver tasks initiated, want 4", name, exhausted, got)
			}
			if live := liveTasks(rt); len(live) != 0 {
				t.Errorf("%s (budget exhausted %v): kernels still hold tasks %v", name, exhausted, live)
			}
		}
	}
}
