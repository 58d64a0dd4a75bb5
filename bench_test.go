// Benchmark harness: one bench per experiment in DESIGN.md's
// per-experiment index.  Each BenchmarkE* target regenerates its table
// (printed once under -v via b.Log) and reports the headline quantity as
// a custom metric, so `go test -bench=. -benchmem` reproduces the full
// evaluation of the paper.
package fem2_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"

	fem2 "repro"
	"repro/internal/arch"
	"repro/internal/exp"
	"repro/internal/fem"
	"repro/internal/hgraph"
	"repro/internal/job"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/navm"
	"repro/internal/spvm"
	"repro/internal/trace"
)

// logTable prints an experiment table once per benchmark.
func logTable(b *testing.B, t *exp.Table, err error) *exp.Table {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + t.String())
	return t
}

// BenchmarkE1RequirementsSweep regenerates the Adams–Voigt style
// processing/storage/communication requirements table (E1).
func BenchmarkE1RequirementsSweep(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E1Requirements([]int{8, 16, 32}, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// BenchmarkE2SolverSpeedup regenerates the solver speedup curve (E2).
func BenchmarkE2SolverSpeedup(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E2SolverSpeedup(24, []int{1, 2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	t = logTable(b, t, nil)
	if s, err := strconv.ParseFloat(t.Rows[len(t.Rows)-1][2], 64); err == nil {
		b.ReportMetric(s, "speedup@16")
	}
}

// BenchmarkE3Substructure regenerates the substructure parallelism table
// (E3).
func BenchmarkE3Substructure(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E3Substructure([]int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// BenchmarkE4MultiUser regenerates the multi-user throughput table (E4).
func BenchmarkE4MultiUser(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E4MultiUser([]int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// BenchmarkE5TaskInitiation regenerates the dynamic task initiation table
// (E5).
func BenchmarkE5TaskInitiation(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E5TaskInitiation([]int{10, 100, 1000})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// BenchmarkE6WindowAccess regenerates the window access cost table (E6).
func BenchmarkE6WindowAccess(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E6WindowAccess()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// BenchmarkE7FaultIsolation regenerates the fault isolation table (E7).
func BenchmarkE7FaultIsolation(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E7FaultIsolation([]int{0, 1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// BenchmarkE8ProgrammabilityLevels regenerates the per-level
// programmability table (E8).
func BenchmarkE8ProgrammabilityLevels(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E8Programmability()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// BenchmarkE9ClusterScheduling regenerates the cluster scheduling table
// (E9).
func BenchmarkE9ClusterScheduling(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E9ClusterScheduling([]int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// BenchmarkE10LinalgKernels regenerates the NAVM kernel scaling table
// (E10).
func BenchmarkE10LinalgKernels(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E10LinalgKernels([]int{1, 4, 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// BenchmarkE11HGraphValidation regenerates the formal-specification
// validation table (E11) and measures grammar-check throughput.
func BenchmarkE11HGraphValidation(b *testing.B) {
	g := hgraph.SPVMMessageGrammar()
	msg := &spvm.Message{Type: spvm.MsgInitiate, TaskType: "w", Replications: 8, Params: []float64{1, 2}}
	gr := msg.ToHGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if errs := g.Validate(gr); len(errs) != 0 {
			b.Fatal(errs)
		}
	}
	b.StopTimer()
	t, err := exp.E11HGraphValidation(20)
	logTable(b, t, err)
}

// BenchmarkE12SolverComparison regenerates the CG / multi-colour SOR /
// Jacobi comparison (E12).
func BenchmarkE12SolverComparison(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E12SolverComparison(8, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// BenchmarkE13LatencyAblation regenerates the network latency ablation
// (E13) — the design-space sensitivity study.
func BenchmarkE13LatencyAblation(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E13LatencyAblation([]int64{0, 50, 200, 800})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// BenchmarkE14CommunicationPattern regenerates the cluster traffic
// matrices (E14) — the paper's "communication patterns" measurement.
func BenchmarkE14CommunicationPattern(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E14CommunicationPattern()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// BenchmarkE15RenumberingAblation regenerates the RCM renumbering
// ablation (E15) for the direct-solve baseline.
func BenchmarkE15RenumberingAblation(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.E15RenumberingAblation()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// BenchmarkDesignIteration runs the design-method loop itself.
func BenchmarkDesignIteration(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.DesignIteration()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t, nil)
}

// --- kernel micro-benchmarks (the substrate costs behind the tables) ---

func benchSystem(b *testing.B, n int) (*linalg.CSR, linalg.Vector) {
	b.Helper()
	return benchPlate(b, n, n)
}

// benchPlate is the free stiffness matrix and end-load right-hand side of
// an nx×ny unit-cell plate clamped on the left — 40×24 is the benchmark's
// large plate.
func benchPlate(tb testing.TB, nx, ny int) (*linalg.CSR, linalg.Vector) {
	tb.Helper()
	o := fem.RectGridOpts{NX: nx, NY: ny, W: float64(nx), H: float64(ny), Mat: fem.Steel(), ClampLeft: true}
	m, err := fem.RectGrid("bench", o)
	if err != nil {
		tb.Fatal(err)
	}
	asm, err := fem.Assemble(m)
	if err != nil {
		tb.Fatal(err)
	}
	ls := fem.EndLoad("l", o, 0, -1000)
	_, index := m.FreeDOFs()
	rhs, err := m.RHS(ls, index, len(asm.Free))
	if err != nil {
		tb.Fatal(err)
	}
	return asm.K, rhs
}

// BenchmarkSolveBackends compares every backend in the solver registry
// — plus CG under each registered preconditioner — on one fixed plate,
// reporting iteration counts and flops per engine so the benchmark
// history carries a solver-trajectory signal.  A newly registered
// backend appears as a new sub-benchmark automatically.
func BenchmarkSolveBackends(b *testing.B) {
	k, rhs := benchSystem(b, 12)
	type engine struct{ backend, precond string }
	var cases []engine
	for _, name := range fem2.Backends() {
		cases = append(cases, engine{name, ""})
		if name == fem2.BackendCG {
			for _, p := range fem2.Preconds() {
				cases = append(cases, engine{name, p})
			}
		}
	}
	for _, c := range cases {
		label := c.backend
		if c.precond != "" {
			label += "+" + c.precond
		}
		b.Run(label, func(b *testing.B) {
			solver, err := linalg.Backend(c.backend)
			if err != nil {
				b.Fatal(err)
			}
			var info linalg.Info
			for i := 0; i < b.N; i++ {
				_, info, err = solver.Solve(context.Background(), k, rhs, linalg.IterOpts{Precond: c.precond})
				// Plain Jacobi legitimately exhausts its budget on
				// plates; the cost of trying is still the measurement.
				if err != nil && !errors.Is(err, linalg.ErrNoConvergence) {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(info.Iterations), "iters")
			b.ReportMetric(float64(info.Flops)/1e6, "Mflops")
		})
	}
}

// BenchmarkSequentialCG is the sequential baseline solver.
func BenchmarkSequentialCG(b *testing.B) {
	k, rhs := benchSystem(b, 16)
	b.ResetTimer()
	cgSolver, err := linalg.Backend(linalg.BackendCG)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := cgSolver.Solve(context.Background(), k, rhs, linalg.IterOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBandedCholesky is the 1980s production direct solver baseline.
func BenchmarkBandedCholesky(b *testing.B) {
	k, rhs := benchSystem(b, 16)
	banded := k.ToBanded()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := banded.SolveCholesky(rhs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelCG16 is the distributed solver on 16 simulated
// workers.
func BenchmarkParallelCG16(b *testing.B) {
	k, rhs := benchSystem(b, 16)
	d, err := navm.Partition(k, rhs, 16)
	if err != nil {
		b.Fatal(err)
	}
	cfg := arch.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := navm.NewRuntime(arch.MustNew(cfg))
		rt.AttachInstrumentation(metrics.NewCollector(), nil)
		if _, _, err := rt.ParallelCG(context.Background(), d, linalg.DefaultIterOpts(k.N)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpMV measures the raw sparse kernel.
func BenchmarkSpMV(b *testing.B) {
	k, rhs := benchSystem(b, 24)
	out := linalg.NewVector(k.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.MulVec(rhs, out, nil)
	}
	b.SetBytes(int64(k.NNZ() * 8))
}

// BenchmarkAssembly measures direct-stiffness assembly.
func BenchmarkAssembly(b *testing.B) {
	o := fem.RectGridOpts{NX: 16, NY: 16, W: 16, H: 16, Mat: fem.Steel(), ClampLeft: true}
	m, err := fem.RectGrid("bench", o)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fem.Assemble(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssemble compares the assembly pipelines on the experiment
// plates: the triplet reference path (append + sort per assembly), the
// one-shot workspace path (symbolic + numeric), repeat numeric assembly
// through a reused workspace (the assemble-once-solve-many hot path),
// and the parallel numeric phase at 1/2/4/8 workers.  -benchmem shows
// the headline: pattern reuse eliminates the per-assembly sort and
// triplet allocations.
func BenchmarkAssemble(b *testing.B) {
	for _, n := range []int{8, 16} {
		o := fem.RectGridOpts{NX: n, NY: n, W: float64(n), H: float64(n), Mat: fem.Steel(), ClampLeft: true}
		m, err := fem.RectGrid("bench", o)
		if err != nil {
			b.Fatal(err)
		}
		prefix := "plate-" + strconv.Itoa(n) + "/"
		b.Run(prefix+"triplets", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fem.AssembleTriplets(m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(prefix+"pattern-once", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fem.Assemble(m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(prefix+"pattern-reuse", func(b *testing.B) {
			ws, err := fem.NewWorkspace(m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Assemble(); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(prefix+"parallel-"+strconv.Itoa(workers), func(b *testing.B) {
				ws, err := fem.NewWorkspace(m)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ws.AssembleParallel(workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSubstructureSolve measures the substructured solve with its
// condensation fan-out pinned to 1/2/4/8 host workers: the per-
// substructure interior factor (banded) and Schur condensation overlap
// across cores, the interface solve is the serial tail.
func BenchmarkSubstructureSolve(b *testing.B) {
	o := fem.RectGridOpts{NX: 32, NY: 8, W: 32, H: 8, Mat: fem.Steel(), ClampLeft: true}
	m, err := fem.RectGrid("bench", o)
	if err != nil {
		b.Fatal(err)
	}
	ls := fem.EndLoad("tip", o, 0, -2000)
	s, err := fem.PartitionByX(m, 8)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers-"+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fem.SolveSubstructuredWorkers(ctx, m, s, ls, nil, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDirectSolve measures the factor-once split of the direct
// solvers on the plate-16 fixture: cold is the full cholesky-rcm
// pipeline per solve (symbolic + factor + solve, what every solve paid
// before the plan layer), warm is a repeat solve riding a retained
// factor (band and envelope storage), and refactor is the
// values-changed path — in-place numeric refactorisation plus solve.
// Warm and refactor run with zero steady-state allocations; the
// ProfileNNZ metrics show band vs envelope storage.
func BenchmarkDirectSolve(b *testing.B) {
	k, rhs := benchSystem(b, 16)
	newPlan := func(b *testing.B, opts linalg.PlanOpts) *linalg.DirectPlan {
		b.Helper()
		plan, err := linalg.NewDirectPlan(k, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := plan.Refactor(k, nil); err != nil {
			b.Fatal(err)
		}
		return plan
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := linalg.SolveCholeskyRCM(k, rhs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		plan := newPlan(b, linalg.PlanOpts{Ordering: linalg.OrderRCM})
		out := linalg.NewVector(k.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.SolveInto(rhs, out, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(plan.ProfileNNZ()), "profile-nnz")
	})
	b.Run("warm-env", func(b *testing.B) {
		plan := newPlan(b, linalg.PlanOpts{Ordering: linalg.OrderRCM, Storage: linalg.StorageEnvelope})
		out := linalg.NewVector(k.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.SolveInto(rhs, out, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(plan.ProfileNNZ()), "profile-nnz")
	})
	b.Run("refactor", func(b *testing.B) {
		plan := newPlan(b, linalg.PlanOpts{Ordering: linalg.OrderRCM})
		out := linalg.NewVector(k.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := plan.Refactor(k, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := plan.SolveInto(rhs, out, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The in-process twin of the benchmark's linalg.refactor_large_ms and
	// linalg.refactor_mflops probes: the numeric envelope refactorisation
	// of the 40x24 plate alone.
	b.Run("refactor-env", func(b *testing.B) {
		k, _ := benchPlate(b, 40, 24)
		plan, err := linalg.NewDirectPlan(k, linalg.PlanOpts{Ordering: linalg.OrderRCM, Storage: linalg.StorageEnvelope})
		if err != nil {
			b.Fatal(err)
		}
		var st linalg.Stats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := plan.Refactor(k, &st); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.Flops)/1e6/b.Elapsed().Seconds(), "Mflop/s")
	})
}

// BenchmarkMessageCodec measures SPVM message encode+decode.
func BenchmarkMessageCodec(b *testing.B) {
	m := &spvm.Message{
		Type: spvm.MsgRemoteCall, Procedure: "dot", Caller: 3,
		Window: &spvm.WindowDesc{Array: "x", Kind: "row", Owner: 1, Rows: 1, Cols: 64},
		Params: make([]float64, 32),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := m.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := spvm.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapAllocFree measures the SPVM variable-size-block heap.
func BenchmarkHeapAllocFree(b *testing.B) {
	h := spvm.NewHeap(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a1, err := h.Alloc(64)
		if err != nil {
			b.Fatal(err)
		}
		a2, err := h.Alloc(128)
		if err != nil {
			b.Fatal(err)
		}
		h.Free(a1)
		h.Free(a2)
	}
}

// BenchmarkKernelDispatch measures the cluster kernel's decode+dispatch.
func BenchmarkKernelDispatch(b *testing.B) {
	cfg := arch.DefaultConfig()
	m := arch.MustNew(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Send(1, i%cfg.Clusters, 8, 0, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaskInitiation measures NAVM task spawn+join round trips.
func BenchmarkTaskInitiation(b *testing.B) {
	cfg := arch.DefaultConfig()
	rt := navm.NewRuntime(arch.MustNew(cfg))
	rt.AttachInstrumentation(metrics.NewCollector(), trace.NewCapped(1))
	root, err := rt.NewRootTask()
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.RegisterTaskType("noop", 16, 2, func(tc *navm.TaskCtx, r int) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := root.Initiate("noop", 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := g.Wait(root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseDispatch measures the command layer itself on a cheap
// verb, so parsing and dispatch dominate: the full Execute adapter
// (parse + interpret + render), the typed path with a per-call Parse,
// and the typed path with a pre-built command — the overhead a server
// skips by holding the AST.
func BenchmarkParseDispatch(b *testing.B) {
	newBenchSession := func(b *testing.B) *fem2.Session {
		b.Helper()
		sys, err := fem2.New()
		if err != nil {
			b.Fatal(err)
		}
		s := sys.Session("bench")
		if _, err := s.Execute("generate grid g 4 4 4 4 clamp-left"); err != nil {
			b.Fatal(err)
		}
		return s
	}
	const line = "display model g"
	b.Run("execute", func(b *testing.B) {
		s := newBenchSession(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Execute(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse+do", func(b *testing.B) {
		s := newBenchSession(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cmd, err := fem2.Parse(line)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Do(ctx, cmd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("do", func(b *testing.B) {
		s := newBenchSession(b)
		ctx := context.Background()
		cmd := fem2.Display{What: "model", Model: "g"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Do(ctx, cmd); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConcurrentSolves measures the asynchronous job service as a
// front end: N sessions each submit a solve on their own model through
// the shared scheduler and wait for all of them, so the headline metric
// is jobs/sec at 1, 4, and 16 parallel sessions.  Distinct models never
// serialize, so this exercises the worker pool, the per-model lock map,
// and the per-job metrics plumbing at full concurrency.
func BenchmarkConcurrentSolves(b *testing.B) {
	for _, sessions := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			sys, err := fem2.New(fem2.WithWorkers(sessions))
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			ctx := context.Background()
			ss := make([]*fem2.Session, sessions)
			cmds := make([]fem2.Command, sessions)
			for i := range ss {
				ss[i] = sys.Session(fmt.Sprintf("user-%d", i))
				model := fmt.Sprintf("plate-%d", i)
				for _, line := range []string{
					fmt.Sprintf("generate grid %s 8 6 8 6 clamp-left", model),
					fmt.Sprintf("load %s tip endload 0 -100", model),
				} {
					if _, err := ss[i].Execute(line); err != nil {
						b.Fatal(err)
					}
				}
				cmds[i] = fem2.SolveCommand{Model: model, Set: "tip"}
			}
			ids := make([]fem2.JobID, sessions)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := range ss {
					id, err := ss[i].SubmitAsync(ctx, cmds[i])
					if err != nil {
						b.Fatal(err)
					}
					ids[i] = id
				}
				for _, id := range ids {
					if _, err := sys.Jobs.Wait(ctx, id); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*sessions)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkServerThroughput is BenchmarkConcurrentSolves pushed through
// the wire: N network clients against one fem2d-style server, each
// submitting a solve on its own model and waiting for the result, so
// the headline jobs/s at 1/4/16 clients carries the full protocol cost
// — frame codec, per-connection session, scheduler admission, and the
// notification fan-out — on top of the solve itself.
func BenchmarkServerThroughput(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			sys, err := fem2.New(fem2.WithWorkers(clients))
			if err != nil {
				b.Fatal(err)
			}
			srv := fem2.NewServer(sys, fem2.ServerConfig{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Shutdown(context.Background())

			ctx := context.Background()
			cls := make([]*fem2.Client, clients)
			cmds := make([]fem2.Command, clients)
			for i := range cls {
				cl, err := fem2.Dial(ln.Addr().String(), fmt.Sprintf("user-%d", i))
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				cls[i] = cl
				model := fmt.Sprintf("plate-%d", i)
				for _, cmd := range []fem2.Command{
					fem2.GenerateGrid{Name: model, NX: 8, NY: 6, W: 8, H: 6, ClampLeft: true},
					fem2.EndLoad{Model: model, Set: "tip", FY: -100},
				} {
					if _, err := cl.Do(ctx, cmd); err != nil {
						b.Fatal(err)
					}
				}
				cmds[i] = fem2.SolveCommand{Model: model, Set: "tip"}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				errc := make(chan error, clients)
				var wg sync.WaitGroup
				for i := range cls {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						res, err := cls[i].Do(ctx, fem2.SubmitCommand{Cmd: cmds[i]})
						if err != nil {
							errc <- err
							return
						}
						if _, err := cls[i].Do(ctx, fem2.WaitCommand{ID: res.(*fem2.SubmitResult).ID}); err != nil {
							errc <- err
						}
					}(i)
				}
				wg.Wait()
				close(errc)
				for err := range errc {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*clients)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
	// The in-process twin of the benchmark's iterate_small workload: one
	// client, closed-loop submit+wait on the 8x6 plate, timed only once
	// the scheduler's retention window is full — the steady state a
	// long-lived daemon is in, where every submit also evicts a record.
	// Run with -benchmem: allocs/op is the ceiling a service-path change
	// must not raise.
	b.Run("submit-wait-steady", func(b *testing.B) {
		sys, err := fem2.New(fem2.WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		srv := fem2.NewServer(sys, fem2.ServerConfig{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Shutdown(context.Background())
		cl, err := fem2.Dial(ln.Addr().String(), "steady")
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		remotePlate(b, cl, "plate", 8, 6)
		for n := 0; n <= job.DefaultRetainedJobs; n++ {
			if _, _, err := submitAndWait(cl, "plate"); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, _, err := submitAndWait(cl, "plate"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	})
}

// BenchmarkAUVMCommand measures command interpretation end to end.
func BenchmarkAUVMCommand(b *testing.B) {
	sys, err := fem2.New()
	if err != nil {
		b.Fatal(err)
	}
	s := sys.Session("bench")
	if _, err := s.Execute("generate grid g 8 8 8 8 clamp-left"); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Execute("load g l endload 0 -1000"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute("solve g l method cholesky"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmResolve measures the engineer's re-solve: an unchanged
// 40×24 plate (2050 dof, 1920 CSTs) solved again and its stresses
// recovered, through Session.Do.  Factor and symbolic assembly are both
// warm, so a job is numeric re-assembly + value compare + triangular
// solve + stress recovery; -benchmem shows the symbolic phase is gone.
func BenchmarkWarmResolve(b *testing.B) {
	sys, err := fem2.New()
	if err != nil {
		b.Fatal(err)
	}
	s := sys.Session("bench")
	ctx := context.Background()
	cmds := make([]fem2.Command, 0, 4)
	for _, line := range []string{
		"generate grid g 40 24 40 24 clamp-left",
		"load g l endload 0 -1000",
		"solve g l method cholesky-env",
		"stresses g",
	} {
		cmd, err := fem2.Parse(line)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Do(ctx, cmd); err != nil {
			b.Fatal(err)
		}
		cmds = append(cmds, cmd)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cmd := range cmds[2:] {
			if _, err := s.Do(ctx, cmd); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRegenerateSolve measures the engineer's design iteration: a
// new modulus, the same 40×24 plate regenerated under the same name, its
// end load, and a cholesky-env solve, through Session.Do.  The factor
// must be recomputed every time (the check below), but the regenerated
// model inherits the symbolic assembly of the one it replaces, so a job
// is grid generation + numeric assembly + refactor + triangular solve.
func BenchmarkRegenerateSolve(b *testing.B) {
	sys, err := fem2.New()
	if err != nil {
		b.Fatal(err)
	}
	s := sys.Session("bench")
	ctx := context.Background()
	var cmds []fem2.Command
	for _, line := range []string{
		"generate grid g 40 24 40 24 clamp-left",
		"load g l endload 0 -1000",
		"solve g l method cholesky-env",
	} {
		cmd, err := fem2.Parse(line)
		if err != nil {
			b.Fatal(err)
		}
		cmds = append(cmds, cmd)
	}
	job := func(i int) {
		if _, err := s.Do(ctx, fem2.SetMaterial{E: 200000 + float64(i), Nu: 0.3, T: 10, A: 100}); err != nil {
			b.Fatal(err)
		}
		var res fem2.Result
		for _, cmd := range cmds {
			if res, err = s.Do(ctx, cmd); err != nil {
				b.Fatal(err)
			}
		}
		if !res.(*fem2.SolveResult).Refactored {
			b.Fatal("a regenerated plate with a new modulus rode a warm factor")
		}
	}
	job(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		job(i)
	}
}

// BenchmarkGrammarValidateModel measures validating the AUVM model
// grammar.
func BenchmarkGrammarValidateModel(b *testing.B) {
	g := hgraph.StructureModelGrammar()
	gr := hgraph.NewGraph("model")
	root := gr.Add("model")
	root.Arc("name", gr.AddAtom("n", hgraph.Str("bench")))
	grid := hgraph.NewGraph("grid")
	groot := grid.Add("grid")
	groot.Arc("nodes", grid.AddAtom("n", hgraph.Int(100)))
	groot.Arc("dof-per-node", grid.AddAtom("d", hgraph.Int(2)))
	gn := hgraph.NewNode("grid")
	gn.SetSub(grid)
	gr.AddNode(gn)
	root.Arc("grid", gn)
	elems := gr.Add("elements")
	root.Arc("elements", elems)
	loads := gr.Add("loads")
	root.Arc("loads", loads)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if errs := g.Validate(gr); len(errs) != 0 {
			b.Fatal(errs)
		}
	}
}
