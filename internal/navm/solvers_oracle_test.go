package navm

import (
	"context"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/linalg"
)

// The distributed solvers and KernelCycles as they were before each
// became a call of linalg's one blocked kernel per method, with their
// helpers, verbatim but for their names (workerPEs(rt.machine, p) is
// rt.SolveWorkers(p) now, and DistSystem.haloExchange, at the end, is
// machineCost.Halo) and one call.  A PE's cycles were charged with
// PE.Charge, which is unexported now, and are charged here with
// PE.RunAt(0, cycles), which moves the PE's clock, busy cycles and work
// count alike.  Like PE.Charge, and unlike Machine.Compute, neither
// counts arch.cycles.  They are the oracles of FuzzIterativeBlocks,
// TestDistributedSolversMatchOracles and TestKernelCyclesMatchesOracle.

// finalizeStats folds the per-worker flop counts into the solve stats and
// stamps the simulated makespan; it runs on both success and
// budget-exhaustion paths so callers always see the true cost.
func finalizeStats(rt *Runtime, stats *SolveStats, st []linalg.Stats) {
	stats.Workers = len(st)
	stats.Flops = 0
	for w := range st {
		stats.Flops += st[w].Flops
	}
	rt.ctr.flops.Add(stats.Flops)
	stats.Makespan = rt.machine.Makespan()
}

// barrier synchronizes the worker PEs (the reduction/synchronisation point
// after each parallel phase).
func barrier(rt *Runtime, pes []*arch.PE) {
	ids := make([]int, len(pes))
	for i, p := range pes {
		ids[i] = p.ID
	}
	rt.machine.Barrier(ids)
}

// oracleParallelCG solves the distributed system by conjugate gradients on P
// simulated workers.  The numerics are exact (the returned solution
// matches the sequential solver to rounding); the processing, storage and
// communication costs accrue on the simulated machine: each worker's
// flops advance its own PE clock, each halo word crosses the network, and
// each inner product costs a barrier — reproducing the Adams–Voigt
// analysis of the finite element process on FEM-class hardware.  The
// iteration loop polls ctx, so a cancelled solve stops promptly with an
// error wrapping errs.ErrCancelled.
func (rt *Runtime) oracleParallelCG(ctx context.Context, d *DistSystem, opts linalg.IterOpts) (linalg.Vector, SolveStats, error) {
	var stats SolveStats
	pes, err := rt.SolveWorkers(d.P)
	if err != nil {
		return nil, stats, err
	}
	defer rt.spawnSolverTasks(pes)()
	n := d.A.N
	// Same defaults as the sequential cg backend.
	opts = linalg.IterDefaults(opts, n, 10)
	st := make([]linalg.Stats, d.P) // per-worker flop counts

	x := linalg.NewVector(n)
	r := d.B.Clone()
	p := r.Clone()
	ap := linalg.NewVector(n)

	// Distributed storage: each worker owns its block of x, r, p, ap
	// (4 vectors) plus its matrix rows.
	for w := 0; w < d.P; w++ {
		rows := d.Hi[w] - d.Lo[w]
		var nnz int
		for i := d.Lo[w]; i < d.Hi[w]; i++ {
			nnz += d.A.RowNNZ(i)
		}
		rt.ctr.wordsAlloc.Add(int64(4*rows + 2*nnz))
	}

	bnorm := math.Sqrt(dotBlocks(d, pes, st, r, r))
	if bnorm == 0 {
		return x, stats, nil
	}
	barrier(rt, pes)
	rr := dotBlocks(d, pes, st, r, r)
	barrier(rt, pes)

	maxIter := opts.MaxIter
	for iter := 1; iter <= maxIter; iter++ {
		if err := linalg.CheckCancel(ctx, iter); err != nil {
			finalizeStats(rt, &stats, st)
			return x, stats, err
		}
		// Halo exchange then local SpMV rows, each worker's flops on
		// its own PE.
		stats.HaloWords += d.haloExchange(rt, pes)
		for w := 0; w < d.P; w++ {
			before := st[w].Flops
			d.A.MulVecRows(p, ap, d.Lo[w], d.Hi[w], &st[w])
			pes[w].RunAt(0, (st[w].Flops-before)*CyclesPerFlop)
		}
		barrier(rt, pes)

		pap := dotBlocks(d, pes, st, p, ap)
		barrier(rt, pes)
		if pap <= 0 {
			return nil, stats, fmt.Errorf("navm: CG breakdown, pᵀAp = %g", pap)
		}
		alpha := rr / pap
		axpyBlocks(d, pes, st, alpha, p, x)
		axpyBlocks(d, pes, st, -alpha, ap, r)
		rrNew := dotBlocks(d, pes, st, r, r)
		barrier(rt, pes)

		stats.Iterations = iter
		resid := math.Sqrt(rrNew) / bnorm
		if opts.OnIteration != nil {
			opts.OnIteration(iter, resid)
		}
		if resid <= opts.Tol {
			stats.ResidualNorm = resid
			break
		}
		if iter == maxIter {
			stats.ResidualNorm = resid
			finalizeStats(rt, &stats, st)
			return x, stats, &linalg.ConvergenceError{Backend: "parallel-cg", Iterations: maxIter, Residual: resid}
		}
		beta := rrNew / rr
		for w := 0; w < d.P; w++ {
			for i := d.Lo[w]; i < d.Hi[w]; i++ {
				p[i] = r[i] + beta*p[i]
			}
			st[w].Flops += int64(2 * (d.Hi[w] - d.Lo[w]))
			rt.machine.Compute(pes[w].ID, int64(2*(d.Hi[w]-d.Lo[w]))*CyclesPerFlop)
		}
		barrier(rt, pes)
		rr = rrNew
	}
	finalizeStats(rt, &stats, st)
	return x, stats, nil
}

// dotBlocks computes a distributed inner product: each worker's partial
// runs on its own PE, then one word per worker flows to worker 0 for the
// reduction.
func dotBlocks(d *DistSystem, pes []*arch.PE, st []linalg.Stats, a, b linalg.Vector) float64 {
	var sum float64
	for w := 0; w < d.P; w++ {
		var s float64
		for i := d.Lo[w]; i < d.Hi[w]; i++ {
			s += a[i] * b[i]
		}
		flops := int64(2 * (d.Hi[w] - d.Lo[w]))
		st[w].Flops += flops
		pes[w].RunAt(0, flops*CyclesPerFlop)
		sum += s
	}
	return sum
}

// axpyBlocks computes y += alpha*x blockwise on the workers' PEs.
func axpyBlocks(d *DistSystem, pes []*arch.PE, st []linalg.Stats, alpha float64, x, y linalg.Vector) {
	for w := 0; w < d.P; w++ {
		for i := d.Lo[w]; i < d.Hi[w]; i++ {
			y[i] += alpha * x[i]
		}
		flops := int64(2 * (d.Hi[w] - d.Lo[w]))
		st[w].Flops += flops
		pes[w].RunAt(0, flops*CyclesPerFlop)
	}
}

// oracleKernelCycles measures the simulated cost of the three NAVM linear
// algebra kernels on the distributed system's P workers: one
// halo-exchanged SpMV, one inner product (with its one-word-per-worker
// reduction and barrier), and one axpy (no synchronisation at all).  The
// axpy/dot contrast isolates the reduction cost that limits CG
// scalability.
func (rt *Runtime) oracleKernelCycles(d *DistSystem) (spmv, dot, axpy int64, err error) {
	pes, err := rt.SolveWorkers(d.P)
	if err != nil {
		return 0, 0, 0, err
	}
	n := d.A.N
	st := make([]linalg.Stats, d.P)
	x := linalg.NewVector(n)
	y := linalg.NewVector(n)
	x.Fill(1)
	y.Fill(2)
	out := linalg.NewVector(n)

	// Axpy: pure local work, no barrier.
	m0 := rt.machine.Makespan()
	axpyBlocks(d, pes, st, 2, x, y)
	axpy = rt.machine.Makespan() - m0

	// Dot: local partials, one word per worker to the reducer, barrier.
	m1 := rt.machine.Makespan()
	dotBlocks(d, pes, st, x, y)
	for w := 1; w < d.P; w++ {
		rt.machine.RemoteFetch(pes[0].ID, pes[w].Cluster, 1)
	}
	barrier(rt, pes)
	dot = rt.machine.Makespan() - m1

	// SpMV: halo exchange, local rows, barrier.
	m2 := rt.machine.Makespan()
	d.haloExchange(rt, pes)
	for w := 0; w < d.P; w++ {
		before := st[w].Flops
		d.A.MulVecRows(x, out, d.Lo[w], d.Hi[w], &st[w])
		pes[w].RunAt(0, (st[w].Flops-before)*CyclesPerFlop)
	}
	barrier(rt, pes)
	spmv = rt.machine.Makespan() - m2
	return spmv, dot, axpy, nil
}

// oracleParallelJacobi solves the distributed system by Jacobi iteration on P
// simulated workers — the maximally parallel method the original Finite
// Element Machine favoured.  Same cost model as ParallelCG, but the only
// synchronisation per iteration is the halo exchange and one barrier
// (no inner products except the convergence check).  The iteration loop
// polls ctx like ParallelCG does.
func (rt *Runtime) oracleParallelJacobi(ctx context.Context, d *DistSystem, opts linalg.IterOpts) (linalg.Vector, SolveStats, error) {
	var stats SolveStats
	pes, err := rt.SolveWorkers(d.P)
	if err != nil {
		return nil, stats, err
	}
	defer rt.spawnSolverTasks(pes)()
	n := d.A.N
	// Same defaults as the sequential jacobi backend.
	opts = linalg.IterDefaults(opts, n, 200)
	st := make([]linalg.Stats, d.P)
	diag := d.A.Diagonal()
	for i, v := range diag {
		if v == 0 {
			return nil, stats, fmt.Errorf("navm: Jacobi zero diagonal at %d", i)
		}
	}
	x := linalg.NewVector(n)
	xNew := linalg.NewVector(n)
	bnorm := math.Sqrt(dotBlocks(d, pes, st, d.B, d.B))
	if bnorm == 0 {
		return x, stats, nil
	}
	maxIter := opts.MaxIter
	r := linalg.NewVector(n)
	for iter := 1; iter <= maxIter; iter++ {
		if err := linalg.CheckCancel(ctx, iter); err != nil {
			finalizeStats(rt, &stats, st)
			return x, stats, err
		}
		stats.HaloWords += d.haloExchange(rt, pes)
		for w := 0; w < d.P; w++ {
			var flops int64
			for i := d.Lo[w]; i < d.Hi[w]; i++ {
				s := d.B[i]
				for k := d.A.RowPtr[i]; k < d.A.RowPtr[i+1]; k++ {
					j := d.A.ColIdx[k]
					if j != i {
						s -= d.A.Val[k] * x[j]
					}
				}
				xNew[i] = s / diag[i]
				flops += int64(2*d.A.RowNNZ(i) + 1)
			}
			st[w].Flops += flops
			pes[w].RunAt(0, flops*CyclesPerFlop)
		}
		barrier(rt, pes)
		x, xNew = xNew, x
		// Convergence check: distributed residual.
		for w := 0; w < d.P; w++ {
			before := st[w].Flops
			d.A.MulVecRows(x, r, d.Lo[w], d.Hi[w], &st[w])
			for i := d.Lo[w]; i < d.Hi[w]; i++ {
				r[i] = d.B[i] - r[i]
			}
			st[w].Flops += int64(d.Hi[w] - d.Lo[w])
			pes[w].RunAt(0, (st[w].Flops-before)*CyclesPerFlop)
		}
		resid := math.Sqrt(dotBlocks(d, pes, st, r, r)) / bnorm
		barrier(rt, pes)
		stats.Iterations = iter
		if opts.OnIteration != nil {
			opts.OnIteration(iter, resid)
		}
		if resid <= opts.Tol {
			stats.ResidualNorm = resid
			break
		}
		if iter == maxIter {
			stats.ResidualNorm = resid
			finalizeStats(rt, &stats, st)
			return x, stats, &linalg.ConvergenceError{Backend: "parallel-jacobi", Iterations: maxIter, Residual: resid}
		}
	}
	finalizeStats(rt, &stats, st)
	return x, stats, nil
}

// oracleParallelMultiColorSOR solves the distributed system by multi-colour SOR
// on P simulated workers.  Rows of one color are mutually independent, so
// each color sweep runs fully parallel across the row blocks; a halo
// exchange and barrier separate consecutive colors.  This is the
// iteration Adams analysed for the Finite Element Machine: it converges
// like Gauss-Seidel/SOR (roughly twice as fast as Jacobi on grid
// problems) while exposing Jacobi-like parallelism within each color.
// The iteration loop polls ctx like ParallelCG does.  c is a greedy
// colouring, which is valid by construction (linalg's tests validate it),
// so the oracle no longer checks it.
func (rt *Runtime) oracleParallelMultiColorSOR(ctx context.Context, d *DistSystem, c *linalg.Coloring, opts linalg.IterOpts) (linalg.Vector, SolveStats, error) {
	var stats SolveStats
	// Same defaults as the sequential sor backend.
	opts = linalg.IterDefaults(opts, d.A.N, 100)
	w := opts.Omega
	if w <= 0 || w >= 2 {
		return nil, stats, fmt.Errorf("navm: SOR relaxation factor %g outside (0,2)", w)
	}
	pes, err := rt.SolveWorkers(d.P)
	if err != nil {
		return nil, stats, err
	}
	defer rt.spawnSolverTasks(pes)()
	n := d.A.N
	diag := d.A.Diagonal()
	for i, v := range diag {
		if v == 0 {
			return nil, stats, fmt.Errorf("navm: SOR zero diagonal at %d", i)
		}
	}
	// Pre-split each worker's rows by color.
	rowsBy := make([][][]int, d.P)
	for p := 0; p < d.P; p++ {
		rowsBy[p] = make([][]int, c.NumColors)
		for r := d.Lo[p]; r < d.Hi[p]; r++ {
			col := c.ColorOf[r]
			rowsBy[p][col] = append(rowsBy[p][col], r)
		}
	}
	st := make([]linalg.Stats, d.P)
	x := linalg.NewVector(n)
	bnorm := math.Sqrt(dotBlocks(d, pes, st, d.B, d.B))
	if bnorm == 0 {
		return x, stats, nil
	}
	maxIter := opts.MaxIter
	r := linalg.NewVector(n)
	for iter := 1; iter <= maxIter; iter++ {
		if err := linalg.CheckCancel(ctx, iter); err != nil {
			finalizeStats(rt, &stats, st)
			return x, stats, err
		}
		for color := 0; color < c.NumColors; color++ {
			// Boundary values of the previous colors must be
			// visible before this sweep.
			stats.HaloWords += d.haloExchange(rt, pes)
			for p := 0; p < d.P; p++ {
				var flops int64
				for _, i := range rowsBy[p][color] {
					s := d.B[i]
					for k := d.A.RowPtr[i]; k < d.A.RowPtr[i+1]; k++ {
						j := d.A.ColIdx[k]
						if j != i {
							s -= d.A.Val[k] * x[j]
						}
					}
					x[i] = (1-w)*x[i] + w*s/diag[i]
					flops += int64(2*d.A.RowNNZ(i) + 4)
				}
				st[p].Flops += flops
				pes[p].RunAt(0, flops*CyclesPerFlop)
			}
			barrier(rt, pes)
		}
		// Distributed residual check.
		for p := 0; p < d.P; p++ {
			before := st[p].Flops
			d.A.MulVecRows(x, r, d.Lo[p], d.Hi[p], &st[p])
			for i := d.Lo[p]; i < d.Hi[p]; i++ {
				r[i] = d.B[i] - r[i]
			}
			st[p].Flops += int64(d.Hi[p] - d.Lo[p])
			pes[p].RunAt(0, (st[p].Flops-before)*CyclesPerFlop)
		}
		resid := math.Sqrt(dotBlocks(d, pes, st, r, r)) / bnorm
		barrier(rt, pes)
		stats.Iterations = iter
		if opts.OnIteration != nil {
			opts.OnIteration(iter, resid)
		}
		if resid <= opts.Tol {
			stats.ResidualNorm = resid
			break
		}
		if iter == maxIter {
			stats.ResidualNorm = resid
			finalizeStats(rt, &stats, st)
			return x, stats, &linalg.ConvergenceError{Backend: "parallel-multicolor-sor", Iterations: maxIter, Residual: resid}
		}
	}
	finalizeStats(rt, &stats, st)
	return x, stats, nil
}

// haloExchange charges the per-iteration halo communication: worker p
// fetches CommWords[p][q] words from worker q's cluster through a block
// window (one message per non-empty pair).
func (d *DistSystem) haloExchange(rt *Runtime, pes []*arch.PE) int64 {
	var words int64
	for p := 0; p < d.P; p++ {
		for q := 0; q < d.P; q++ {
			w := d.CommWords[p][q]
			if w == 0 {
				continue
			}
			rt.machine.RemoteFetch(pes[p].ID, pes[q].Cluster, w)
			if pes[p].Cluster != pes[q].Cluster {
				rt.ctr.remote.Inc()
				rt.ctr.message(w)
			} else {
				rt.ctr.local.Inc()
			}
			words += w
		}
	}
	return words
}
