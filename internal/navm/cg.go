package navm

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/linalg"
	"repro/internal/spvm"
)

// DistSystem is a linear system A*x = b partitioned into contiguous row
// blocks over P logical workers, with a precomputed communication plan:
// commWords[p][q] counts the distinct columns in worker q's range that
// worker p's rows reference — the words p must fetch from q through a
// window before each matrix-vector product.  Irregular meshes give
// irregular plans, exactly the "irregular communication patterns" the
// FEM-2 hardware requirements anticipate.
type DistSystem struct {
	A *linalg.CSR
	B linalg.Vector
	P int
	// Lo[p], Hi[p] bound worker p's row range.
	Lo, Hi []int
	// CommWords[p][q] is the halo size p reads from q per SpMV.
	CommWords [][]int64
}

// Partition splits the system into p contiguous row blocks and builds the
// communication plan.
func Partition(a *linalg.CSR, b linalg.Vector, p int) (*DistSystem, error) {
	if a.N != len(b) {
		return nil, fmt.Errorf("navm: partition order %d with rhs %d", a.N, len(b))
	}
	if p < 1 {
		return nil, fmt.Errorf("navm: partition into %d blocks", p)
	}
	if p > a.N {
		p = a.N
	}
	d := &DistSystem{A: a, B: b, P: p, Lo: make([]int, p), Hi: make([]int, p)}
	ownerOf := make([]int, a.N)
	for i := 0; i < p; i++ {
		d.Lo[i], d.Hi[i] = blockRange(a.N, p, i)
		for r := d.Lo[i]; r < d.Hi[i]; r++ {
			ownerOf[r] = i
		}
	}
	d.CommWords = make([][]int64, p)
	for i := range d.CommWords {
		d.CommWords[i] = make([]int64, p)
	}
	for pi := 0; pi < p; pi++ {
		seen := map[int]bool{}
		for r := d.Lo[pi]; r < d.Hi[pi]; r++ {
			for _, c := range a.RowColumns(r) {
				q := ownerOf[c]
				if q != pi && !seen[c] {
					seen[c] = true
					d.CommWords[pi][q]++
				}
			}
		}
	}
	return d, nil
}

// blockRange splits n items into p contiguous blocks and returns block
// i's [lo,hi) range; earlier blocks are one longer when p does not divide
// n.
func blockRange(n, p, i int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// TotalHaloWords returns the per-SpMV halo exchange volume summed over all
// worker pairs.
func (d *DistSystem) TotalHaloWords() int64 {
	var t int64
	for _, row := range d.CommWords {
		for _, w := range row {
			t += w
		}
	}
	return t
}

// SolveStats reports the simulated costs of a distributed solve.
type SolveStats struct {
	// Workers is the number of row blocks the solve ran on: the
	// DistSystem's P, which Partition clamps to the system order.
	Workers    int
	Iterations int
	// Flops is the total floating point work.
	Flops int64
	// HaloWords is the total halo words exchanged.
	HaloWords int64
	// Makespan is the simulated completion time in cycles.
	Makespan int64
	// ResidualNorm is the final relative residual.
	ResidualNorm float64
}

// workerPEs picks P live worker PEs for a solve: the least-loaded PEs
// (smallest clocks) first, interleaved across clusters on ties.  Picking
// by load lets independent solves on one machine overlap on disjoint PEs
// — the kernel assigns "available PEs".  An error means the machine is
// too degraded.
func workerPEs(m *arch.Machine, p int) ([]*arch.PE, error) {
	live := m.LiveWorkers()
	if len(live) == 0 {
		return nil, arch.ErrNoWorkers
	}
	per := m.Config().PEsPerCluster
	sorted := make([]*arch.PE, len(live))
	copy(sorted, live)
	sort.SliceStable(sorted, func(i, j int) bool {
		ci, cj := sorted[i].Clock(), sorted[j].Clock()
		if ci != cj {
			return ci < cj
		}
		// On equal load, interleave clusters: position within the
		// cluster first, then cluster id.
		pi, pj := sorted[i].ID%per, sorted[j].ID%per
		if pi != pj {
			return pi < pj
		}
		return sorted[i].Cluster < sorted[j].Cluster
	})
	out := make([]*arch.PE, 0, p)
	for len(out) < p {
		for _, w := range sorted {
			out = append(out, w)
			if len(out) == p {
				break
			}
		}
	}
	return out, nil
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

// solverType is the task type behind the distributed solver workers.
const solverType = "__solver"

// spawnSolverTasks runs the SPVM side of a distributed solve: each
// cluster hosting workers receives one initiate message creating that
// cluster's solver task replications (activation records in the kernel
// heap, entries in the ready queue), and the returned cleanup sends the
// matching terminate-and-notify-parent messages.  The numerical phases
// are then costed directly on the PEs; this keeps the kernel-level task
// life cycle faithful without simulating every inner loop as messages.
func (rt *Runtime) spawnSolverTasks(pes []*arch.PE) func() {
	counts := map[int]int64{}
	var clusterOrder []int
	for _, pe := range pes {
		if counts[pe.Cluster] == 0 {
			clusterOrder = append(clusterOrder, pe.Cluster)
		}
		counts[pe.Cluster]++
	}
	type spawned struct {
		kern *spvm.Kernel
		ids  []spvm.TaskID
	}
	var all []spawned
	for _, c := range clusterOrder {
		kern := rt.kernels[c]
		ids, err := kern.Handle(&spvm.Message{
			Type: spvm.MsgInitiate, TaskType: solverType,
			Replications: counts[c], Parent: 0,
		})
		if err != nil {
			continue // heap pressure: the solve still runs, uninstrumented
		}
		for _, id := range ids {
			kern.Ready.Remove(id)
			if rec := kern.Task(id); rec != nil {
				rec.State = spvm.TaskRunning
			}
		}
		all = append(all, spawned{kern: kern, ids: ids})
	}
	return func() {
		for _, s := range all {
			for _, id := range s.ids {
				s.kern.Handle(&spvm.Message{Type: spvm.MsgTerminate, Task: id, Parent: 0})
			}
		}
	}
}

// SolveWorkers exposes the solver placement policy: the P least-loaded
// live worker PEs, interleaved across clusters on ties.  Substructure
// analysis and other layer-above schedulers use it to spread independent
// work the same way the distributed solvers do.
func (rt *Runtime) SolveWorkers(p int) ([]*arch.PE, error) {
	return workerPEs(rt.machine, p)
}

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

// ParallelCG solves the distributed system by conjugate gradients on P
// simulated workers.  The numerics are exact (the returned solution
// matches the sequential solver to rounding); the processing, storage and
// communication costs accrue on the simulated machine: each worker's
// flops advance its own PE clock, each halo word crosses the network, and
// each inner product costs a barrier — reproducing the Adams–Voigt
// analysis of the finite element process on FEM-class hardware.  The
// iteration loop polls ctx, so a cancelled solve stops promptly with an
// error wrapping errs.ErrCancelled.
func (rt *Runtime) ParallelCG(ctx context.Context, d *DistSystem, opts linalg.IterOpts) (linalg.Vector, SolveStats, error) {
	var stats SolveStats
	pes, err := workerPEs(rt.machine, d.P)
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
			pes[w].Charge((st[w].Flops - before) * CyclesPerFlop)
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
		pes[w].Charge(flops * CyclesPerFlop)
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
		pes[w].Charge(flops * CyclesPerFlop)
	}
}

// KernelCycles measures the simulated cost of the three NAVM linear
// algebra kernels on the distributed system's P workers: one
// halo-exchanged SpMV, one inner product (with its one-word-per-worker
// reduction and barrier), and one axpy (no synchronisation at all).  The
// axpy/dot contrast isolates the reduction cost that limits CG
// scalability.
func (rt *Runtime) KernelCycles(d *DistSystem) (spmv, dot, axpy int64, err error) {
	pes, err := workerPEs(rt.machine, d.P)
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
		pes[w].Charge((st[w].Flops - before) * CyclesPerFlop)
	}
	barrier(rt, pes)
	spmv = rt.machine.Makespan() - m2
	return spmv, dot, axpy, nil
}

// ParallelJacobi solves the distributed system by Jacobi iteration on P
// simulated workers — the maximally parallel method the original Finite
// Element Machine favoured.  Same cost model as ParallelCG, but the only
// synchronisation per iteration is the halo exchange and one barrier
// (no inner products except the convergence check).  The iteration loop
// polls ctx like ParallelCG does.
func (rt *Runtime) ParallelJacobi(ctx context.Context, d *DistSystem, opts linalg.IterOpts) (linalg.Vector, SolveStats, error) {
	var stats SolveStats
	pes, err := workerPEs(rt.machine, d.P)
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
			pes[w].Charge(flops * CyclesPerFlop)
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
			pes[w].Charge((st[w].Flops - before) * CyclesPerFlop)
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
