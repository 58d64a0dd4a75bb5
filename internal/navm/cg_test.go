package navm

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// poisson2D builds the 5-point Laplacian on an n×n interior grid.
func poisson2D(n int) *linalg.CSR {
	var ts []linalg.Triplet
	id := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ts = append(ts, linalg.Triplet{Row: id(i, j), Col: id(i, j), Val: 4})
			if i > 0 {
				ts = append(ts, linalg.Triplet{Row: id(i, j), Col: id(i-1, j), Val: -1})
			}
			if i < n-1 {
				ts = append(ts, linalg.Triplet{Row: id(i, j), Col: id(i+1, j), Val: -1})
			}
			if j > 0 {
				ts = append(ts, linalg.Triplet{Row: id(i, j), Col: id(i, j-1), Val: -1})
			}
			if j < n-1 {
				ts = append(ts, linalg.Triplet{Row: id(i, j), Col: id(i, j+1), Val: -1})
			}
		}
	}
	m, err := linalg.NewCSRFromTriplets(n*n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

func newSolveRuntime(t *testing.T, clusters, pesPer int) *Runtime {
	t.Helper()
	cfg := arch.DefaultConfig()
	cfg.Clusters = clusters
	cfg.PEsPerCluster = pesPer
	rt := NewRuntime(arch.MustNew(cfg))
	rt.AttachInstrumentation(obs.New())
	return rt
}

func testSystem(n int) (*linalg.CSR, linalg.Vector, linalg.Vector) {
	a := poisson2D(n)
	rng := rand.New(rand.NewSource(42))
	want := linalg.NewVector(a.N)
	for i := range want {
		want[i] = rng.Float64()*2 - 1
	}
	b := a.MulVec(want, nil, nil)
	return a, b, want
}

func TestPartitionCoversAllRows(t *testing.T) {
	a, b, _ := testSystem(6)
	d, err := Partition(a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, a.N)
	for p := 0; p < d.P; p++ {
		for r := d.Lo[p]; r < d.Hi[p]; r++ {
			if covered[r] {
				t.Fatalf("row %d in two blocks", r)
			}
			covered[r] = true
		}
	}
	for r, c := range covered {
		if !c {
			t.Fatalf("row %d uncovered", r)
		}
	}
}

func TestPartitionCommPlanSymmetricForSymmetricMatrix(t *testing.T) {
	a, b, _ := testSystem(8)
	d, err := Partition(a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 5-point stencil with contiguous blocks: halo only between
	// neighbouring blocks, and symmetric sizes.
	for p := 0; p < d.P; p++ {
		if d.CommWords[p][p] != 0 {
			t.Errorf("self-communication at %d", p)
		}
		for q := 0; q < d.P; q++ {
			if d.CommWords[p][q] != d.CommWords[q][p] {
				t.Errorf("asymmetric plan [%d][%d]=%d vs %d", p, q, d.CommWords[p][q], d.CommWords[q][p])
			}
			if absInt(p-q) > 1 && d.CommWords[p][q] != 0 {
				t.Errorf("non-neighbour communication [%d][%d]=%d", p, q, d.CommWords[p][q])
			}
		}
	}
	// The halo of an 8×8 grid split into 4 row-blocks is one grid row
	// (8 points) per internal boundary side: 6 directed edges... check
	// total is 6*8.
	if got := d.TotalHaloWords(); got != 48 {
		t.Errorf("TotalHaloWords = %d, want 48", got)
	}
}

func TestPartitionErrors(t *testing.T) {
	a, b, _ := testSystem(3)
	if _, err := Partition(a, b[:2], 2); err == nil {
		t.Error("mismatched rhs accepted")
	}
	if _, err := Partition(a, b, 0); err == nil {
		t.Error("zero blocks accepted")
	}
	// More blocks than rows clamps.
	d, err := Partition(a, b, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if d.P != a.N {
		t.Errorf("P = %d, want clamped %d", d.P, a.N)
	}
}

func TestParallelCGMatchesSequential(t *testing.T) {
	a, b, want := testSystem(8)
	rt := newSolveRuntime(t, 4, 5)
	d, _ := Partition(a, b, 8)
	opts := linalg.DefaultIterOpts(a.N)
	x, stats, err := rt.ParallelCG(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if diff := linalg.MaxAbsDiff(x, want); diff > 1e-6 {
		t.Errorf("parallel CG error %g", diff)
	}
	// Same iterate count as the sequential algorithm (identical
	// arithmetic order within blocks is not guaranteed, but counts
	// should be close; allow ±2).
	seqSolver, err := linalg.Backend(linalg.BackendCG)
	if err != nil {
		t.Fatal(err)
	}
	_, seqInfo, err := seqSolver.Solve(context.Background(), a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	seqIters := seqInfo.Iterations
	if stats.Iterations < seqIters-2 || stats.Iterations > seqIters+2 {
		t.Errorf("parallel %d vs sequential %d iterations", stats.Iterations, seqIters)
	}
	if stats.Flops == 0 || stats.Makespan == 0 || stats.HaloWords == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.ResidualNorm > opts.Tol {
		t.Errorf("residual %g above tol", stats.ResidualNorm)
	}
}

func TestParallelCGZeroRHS(t *testing.T) {
	a, _, _ := testSystem(4)
	rt := newSolveRuntime(t, 2, 4)
	d, _ := Partition(a, linalg.NewVector(a.N), 4)
	x, stats, err := rt.ParallelCG(context.Background(), d, linalg.DefaultIterOpts(a.N))
	if err != nil || stats.Iterations != 0 {
		t.Fatalf("zero rhs: %v, %+v", err, stats)
	}
	if linalg.NormInf(x) != 0 {
		t.Error("zero rhs gave nonzero solution")
	}
}

func TestParallelCGConvergenceBudget(t *testing.T) {
	a, b, _ := testSystem(8)
	rt := newSolveRuntime(t, 2, 4)
	d, _ := Partition(a, b, 4)
	opts := linalg.DefaultIterOpts(a.N)
	opts.MaxIter = 2
	opts.Tol = 1e-15
	if _, _, err := rt.ParallelCG(context.Background(), d, opts); err == nil {
		t.Error("budget exhaustion not reported")
	}
}

func TestParallelCGMoreWorkersReduceMakespan(t *testing.T) {
	// The speedup shape of E2: with communication costs bounded, more
	// clusters must cut the simulated completion time of a large solve.
	a, b, _ := testSystem(16)
	opts := linalg.DefaultIterOpts(a.N)

	run := func(clusters, workers int) int64 {
		rt := newSolveRuntime(t, clusters, 5)
		d, _ := Partition(a, b, workers)
		_, stats, err := rt.ParallelCG(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Makespan
	}
	t1 := run(1, 1)
	t8 := run(4, 8)
	if t8 >= t1 {
		t.Errorf("8 workers (%d cycles) not faster than 1 (%d cycles)", t8, t1)
	}
	speedup := float64(t1) / float64(t8)
	if speedup < 2 {
		t.Errorf("speedup %0.2f with 8 workers is implausibly low", speedup)
	}
}

func TestParallelJacobiMatchesSequential(t *testing.T) {
	a, b, want := testSystem(5)
	rt := newSolveRuntime(t, 2, 5)
	d, _ := Partition(a, b, 4)
	opts := linalg.DefaultIterOpts(a.N)
	opts.MaxIter = 20000
	opts.Tol = 1e-9
	x, stats, err := rt.ParallelJacobi(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if diff := linalg.MaxAbsDiff(x, want); diff > 1e-6 {
		t.Errorf("parallel Jacobi error %g", diff)
	}
	if stats.Iterations == 0 {
		t.Error("no iterations recorded")
	}
}

func TestParallelJacobiZeroDiagonal(t *testing.T) {
	m, err := linalg.NewCSRFromTriplets(2, []linalg.Triplet{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rt := newSolveRuntime(t, 1, 3)
	d, _ := Partition(m, linalg.Vector{1, 1}, 2)
	if _, _, err := rt.ParallelJacobi(context.Background(), d, linalg.DefaultIterOpts(2)); err == nil {
		t.Error("zero diagonal accepted")
	}
}

func TestParallelCGSurvivesFailedPEs(t *testing.T) {
	// E7's shape: fail PEs, re-solve on the degraded machine, still
	// converge to the right answer.
	a, b, want := testSystem(8)
	rt := newSolveRuntime(t, 4, 5)
	m := rt.Machine()
	// Fail half the workers in clusters 1 and 2.
	m.FailPE(m.Cluster(1).Workers[0].ID)
	m.FailPE(m.Cluster(2).Workers[0].ID)
	m.FailPE(m.Cluster(2).Workers[1].ID)
	d, _ := Partition(a, b, 8)
	x, stats, err := rt.ParallelCG(context.Background(), d, linalg.DefaultIterOpts(a.N))
	if err != nil {
		t.Fatal(err)
	}
	if diff := linalg.MaxAbsDiff(x, want); diff > 1e-6 {
		t.Errorf("degraded solve error %g", diff)
	}
	if stats.Makespan == 0 {
		t.Error("no makespan")
	}
}

func TestParallelCGAllWorkersFailed(t *testing.T) {
	a, b, _ := testSystem(4)
	rt := newSolveRuntime(t, 2, 3)
	for _, c := range rt.Machine().Clusters() {
		for _, w := range c.Workers {
			rt.Machine().FailPE(w.ID)
		}
	}
	d, _ := Partition(a, b, 4)
	if _, _, err := rt.ParallelCG(context.Background(), d, linalg.DefaultIterOpts(a.N)); err == nil {
		t.Error("solve on fully failed machine succeeded")
	}
}

func TestHaloCommunicationScalesWithPerimeterNotArea(t *testing.T) {
	// E1's shape: for an n×n grid on fixed P, halo words per iteration
	// grow ~O(n) while flops grow ~O(n²).
	haloFor := func(n int) (halo int64, nnz int) {
		a := poisson2D(n)
		b := linalg.NewVector(a.N)
		d, _ := Partition(a, b, 4)
		return d.TotalHaloWords(), a.NNZ()
	}
	h16, nnz16 := haloFor(16)
	h32, nnz32 := haloFor(32)
	haloGrowth := float64(h32) / float64(h16)
	flopGrowth := float64(nnz32) / float64(nnz16)
	if haloGrowth > 2.5 {
		t.Errorf("halo growth %0.2f, want ~2 (perimeter)", haloGrowth)
	}
	if flopGrowth < 3.5 {
		t.Errorf("work growth %0.2f, want ~4 (area)", flopGrowth)
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
