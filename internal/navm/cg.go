package navm

import (
	"context"
	"errors"
	"fmt"
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

// SolveWorkers picks P live worker PEs for a solve: the least-loaded PEs
// (smallest clocks) first, interleaved across clusters on ties.  Picking
// by load lets independent solves on one machine overlap on disjoint PEs
// — the kernel assigns "available PEs".  Substructure analysis uses it to
// spread its condensations the same way.  An error means the machine is
// too degraded.
func (rt *Runtime) SolveWorkers(p int) ([]*arch.PE, error) {
	m := rt.machine
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

// solverType is the task type behind the distributed solver workers.
const solverType = "__solver"

// spawnSolverTasks runs the SPVM side of a distributed solve: each
// cluster hosting workers receives one initiate message creating that
// cluster's solver task replications (ready activation records in the
// kernel's task table and heap), which start at once, and the returned
// cleanup sends the matching terminate-and-notify-parent messages.  The
// numerical phases are then costed directly on the PEs; this keeps the
// kernel-level task life cycle faithful without simulating every inner
// loop as messages.
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
			kern.Start(id)
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

// machineCost is the linalg.CostHook of a distributed solve: it charges
// block w's work to pes[w], exchanges the halo through windows, and
// synchronizes the workers, all on the simulated machine.
type machineCost struct {
	rt   *Runtime
	d    *DistSystem
	pes  []*arch.PE
	ids  []int // the pes' IDs, the barrier's participants
	halo int64 // halo words exchanged so far
}

func newMachineCost(rt *Runtime, d *DistSystem, pes []*arch.PE) *machineCost {
	ids := make([]int, len(pes))
	for i, pe := range pes {
		ids[i] = pe.ID
	}
	return &machineCost{rt: rt, d: d, pes: pes, ids: ids}
}

// Halo charges one halo exchange: worker p fetches CommWords[p][q]
// words from worker q's cluster through a block window (one message per
// non-empty pair).
func (c *machineCost) Halo() {
	for p, row := range c.d.CommWords {
		for q, w := range row {
			if w == 0 {
				continue
			}
			c.rt.machine.RemoteFetch(c.pes[p].ID, c.pes[q].Cluster, w)
			if c.pes[p].Cluster != c.pes[q].Cluster {
				c.rt.ctr.remote.Inc()
				c.rt.ctr.message(w)
			} else {
				c.rt.ctr.local.Inc()
			}
			c.halo += w
		}
	}
}

// Work charges block w's flops to its worker's PE.
func (c *machineCost) Work(w int, flops int64) {
	c.rt.machine.Compute(c.pes[w].ID, flops*CyclesPerFlop)
}

// Barrier synchronizes the worker PEs (the reduction/synchronisation
// point after each parallel phase).
func (c *machineCost) Barrier() { c.rt.machine.Barrier(c.ids) }

// Solve runs the named method's distributed variant on d's row blocks
// (the empty name selects cg), priced on P worker PEs that each host a
// solver task for the solve's duration: each worker's flops advance its
// own PE clock, each halo word crosses the network, and each reduction
// costs a barrier — the Adams–Voigt analysis of the finite element
// process on FEM-class hardware.  The kernel and its default budget are
// the sequential method's (linalg's method table); a coloured method
// sweeps a greedy colouring's classes, whose rows are mutually
// independent, so each class runs fully parallel across the blocks — the
// multi-colour SOR Adams analysed for the Finite Element Machine.
//
// Every exit — converged, out of budget, cancelled (the iteration loop
// polls ctx, and a cancelled solve returns an error wrapping
// errs.ErrCancelled), broken down, or a zero load — reports the solve's
// cost: its flops (also added to navm.flops), halo words and the
// machine's makespan.  An exhausted budget's error names the distributed
// variant.
func (rt *Runtime) Solve(ctx context.Context, d *DistSystem, backend string, opts linalg.IterOpts) (linalg.Vector, SolveStats, error) {
	m, err := linalg.Distributed(backend, opts.Precond)
	if err != nil {
		return nil, SolveStats{}, err
	}
	return rt.solve(ctx, d, m, opts)
}

// solve is Solve by the method row m.
func (rt *Runtime) solve(ctx context.Context, d *DistSystem, m linalg.Method, opts linalg.IterOpts) (linalg.Vector, SolveStats, error) {
	var classes [][]int
	if m.Colored {
		classes = linalg.GreedyColoring(d.A).Rows
	}
	pes, err := rt.SolveWorkers(d.P)
	if err != nil {
		return nil, SolveStats{}, err
	}
	defer rt.spawnSolverTasks(pes)()
	if m.Vectors > 0 {
		// Distributed storage: each worker owns its block of the
		// method's vectors plus its matrix rows (values and columns).
		rt.ctr.wordsAlloc.Add(int64(m.Vectors*d.A.N + 2*d.A.NNZ()))
	}
	cost := newMachineCost(rt, d, pes)
	var st linalg.Stats
	bl := linalg.Blocks{Lo: d.Lo, Hi: d.Hi, Cost: cost}
	x, iters, resid, err := m.Kernel(ctx, d.A, d.B, nil, classes, linalg.IterDefaults(opts, d.A.N, m.Budget), bl, &st, nil)
	rt.ctr.flops.Add(st.Flops)
	stats := SolveStats{
		Workers: d.P, Iterations: iters, Flops: st.Flops, HaloWords: cost.halo,
		Makespan: rt.machine.Makespan(), ResidualNorm: resid,
	}
	var ce *linalg.ConvergenceError
	if errors.As(err, &ce) {
		ce.Backend = m.Distributed
	}
	return x, stats, err
}

// KernelCycles measures the simulated cost of the three NAVM linear
// algebra kernels on the distributed system's P workers, priced as the
// solvers price them: one halo-exchanged SpMV, one inner product (with
// its one-word-per-worker reduction and barrier), and one axpy (no
// synchronisation at all).  The axpy/dot contrast isolates the reduction
// cost that limits CG scalability.
func (rt *Runtime) KernelCycles(d *DistSystem) (spmv, dot, axpy int64, err error) {
	pes, err := rt.SolveWorkers(d.P)
	if err != nil {
		return 0, 0, 0, err
	}
	cost := newMachineCost(rt, d, pes)
	bl := linalg.Blocks{Lo: d.Lo, Hi: d.Hi, Cost: cost}
	n := d.A.N
	x := linalg.NewVector(n)
	y := linalg.NewVector(n)
	x.Fill(1)
	y.Fill(2)
	out := linalg.NewVector(n)

	// Axpy: pure local work, no barrier.
	m0 := rt.machine.Makespan()
	bl.Axpy(2, x, y, nil)
	axpy = rt.machine.Makespan() - m0

	// Dot: local partials, one word per worker to the reducer, barrier.
	m1 := rt.machine.Makespan()
	bl.Dot(x, y, nil)
	for w := 1; w < d.P; w++ {
		rt.machine.RemoteFetch(pes[0].ID, pes[w].Cluster, 1)
	}
	cost.Barrier()
	dot = rt.machine.Makespan() - m1

	// SpMV: halo exchange, local rows, barrier.
	m2 := rt.machine.Makespan()
	cost.Halo()
	bl.MulVec(d.A, x, out, nil)
	cost.Barrier()
	spmv = rt.machine.Makespan() - m2
	return spmv, dot, axpy, nil
}
