package exp

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/auvm"
	"repro/internal/command"
	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/hgraph"
	"repro/internal/linalg"
	"repro/internal/navm"
	"repro/internal/obs"
	"repro/internal/spvm"
	"repro/internal/store"
)

// defaultConfig is the experiment baseline machine.
func defaultConfig(clusters, pesPer int) arch.Config {
	cfg := arch.DefaultConfig()
	cfg.Clusters = clusters
	cfg.PEsPerCluster = pesPer
	return cfg
}

// plateCache memoises the assembled benchmark plate per grid size:
// experiment tables solve the same few plates dozens of times across the
// suite (every E16 backend row, every E13 latency point, ...), and with
// the symbolic/numeric assembly split the system is a pure function of
// the size — so it is assembled exactly once and shared (solvers treat
// the matrix as read-only).
var (
	plateMu    sync.Mutex
	plateCache = map[int]*plateEntry{}
)

type plateEntry struct {
	k *linalg.CSR
	b linalg.Vector
}

// plateSystem assembles (or recalls) an n×n plane-stress cantilever
// plate and its tip load — the "typical large-scale application"
// workload.  The returned matrix is shared and must be treated as
// read-only; the right-hand side is a private copy.
func plateSystem(n int) (*linalg.CSR, linalg.Vector, error) {
	plateMu.Lock()
	defer plateMu.Unlock()
	if e, ok := plateCache[n]; ok {
		return e.k, e.b.Clone(), nil
	}
	o := fem.RectGridOpts{NX: n, NY: n, W: float64(n), H: float64(n), Mat: fem.Steel(), ClampLeft: true}
	m, err := fem.RectGrid(fmt.Sprintf("plate-%d", n), o)
	if err != nil {
		return nil, nil, err
	}
	asm, err := fem.Assemble(m)
	if err != nil {
		return nil, nil, err
	}
	ls := fem.EndLoad("tip", o, 0, -1000)
	_, index := m.FreeDOFs()
	b, err := m.RHS(ls, index, len(asm.Free))
	if err != nil {
		return nil, nil, err
	}
	plateCache[n] = &plateEntry{k: asm.K, b: b}
	return asm.K, b.Clone(), nil
}

// E1Requirements reproduces the Adams–Voigt style quantitative estimate:
// processing, storage, and communication requirements of a typical
// large-scale application across problem sizes.  Expected shape:
// flops grow ~O(n²·iters) while halo communication per iteration grows
// ~O(n), so the computation/communication ratio improves with n.
func E1Requirements(sizes []int, workers int) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: fmt.Sprintf("requirements of an n×n plane-stress solve on %d workers", workers),
		Columns: []string{"n", "dofs", "iters", "Mflops", "storage(words)",
			"msgs", "msg.words", "halo/iter", "flops/word"},
		Notes: "processing grows ~n^2 per iteration, communication ~n: the ratio improves with n",
	}
	for _, n := range sizes {
		k, b, err := plateSystem(n)
		if err != nil {
			return nil, err
		}
		cfg := defaultConfig(4, 1+workers/4+1)
		rt := navm.NewRuntime(arch.MustNew(cfg))
		reg := obs.New()
		rt.AttachInstrumentation(reg)
		d, err := navm.Partition(k, b, workers)
		if err != nil {
			return nil, err
		}
		_, stats, err := rt.Solve(context.Background(), d, linalg.BackendCG, linalg.IterOpts{})
		if err != nil {
			return nil, err
		}
		storage := reg.Counter(obs.NAVMWordsAlloc).Load()
		msgs := rt.Machine().Network().TotalMessages()
		words := rt.Machine().Network().TotalWords()
		haloPerIter := int64(0)
		if stats.Iterations > 0 {
			haloPerIter = stats.HaloWords / int64(stats.Iterations)
		}
		ratio := float64(stats.Flops) / float64(max(words, 1))
		t.AddRow(n, k.N, stats.Iterations, float64(stats.Flops)/1e6,
			storage, msgs, words, haloPerIter, ratio)
	}
	return t, nil
}

// E2SolverSpeedup reproduces the equation-solution parallelism level:
// parallel CG against the sequential baselines over machine sizes.
// Expected shape: sub-linear speedup (the inner-product barriers), with
// the crossover against sequential Cholesky appearing once enough workers
// amortise the iteration count.
func E2SolverSpeedup(n int, workerCounts []int) (*Table, error) {
	k, b, err := plateSystem(n)
	if err != nil {
		return nil, err
	}
	// Sequential baselines from the method table, costed on a
	// single simulated PE.
	cholCycles, err := backendCycles(linalg.BackendCholesky, k, b)
	if err != nil {
		return nil, err
	}
	seqCGCycles, err := backendCycles(linalg.BackendCG, k, b)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "E2",
		Title:   fmt.Sprintf("parallel CG speedup, %d dofs (n=%d grid)", k.N, n),
		Columns: []string{"workers", "makespan", "speedup-vs-seqCG", "speedup-vs-cholesky", "utilization"},
		Notes: fmt.Sprintf("sequential CG %d cycles, banded Cholesky %d cycles on one PE; "+
			"speedup is sub-linear because each iteration costs barriers", seqCGCycles, cholCycles),
	}
	for _, p := range workerCounts {
		clusters := (p + 3) / 4
		if clusters < 1 {
			clusters = 1
		}
		cfg := defaultConfig(clusters, 1+(p+clusters-1)/clusters)
		rt := navm.NewRuntime(arch.MustNew(cfg))
		rt.AttachInstrumentation(obs.New())
		d, err := navm.Partition(k, b, p)
		if err != nil {
			return nil, err
		}
		_, stats, err := rt.Solve(context.Background(), d, linalg.BackendCG, linalg.IterOpts{})
		if err != nil {
			return nil, err
		}
		t.AddRow(p, stats.Makespan,
			float64(seqCGCycles)/float64(stats.Makespan),
			float64(cholCycles)/float64(stats.Makespan),
			rt.Machine().Utilization())
	}
	return t, nil
}

// E3Substructure reproduces the substructure-analysis parallelism level:
// a fixed decomposition into 8 substructures whose condensations fan out
// over a varying pool of worker PEs.  Expected shape: near-linear
// makespan reduction while workers ≤ substructures — condensations are
// mutually independent, so w workers carry ⌈8/w⌉ condensations each.
// (The interior blocks are factored banded, so a single condensation is
// no longer cubically expensive; the parallelism level is about
// overlapping the independent condensations, not about beating the
// direct baseline on a small plate.)
func E3Substructure(workerCounts []int) (*Table, error) {
	const subs = 8
	o := fem.RectGridOpts{NX: 24, NY: 6, W: 24, H: 6, Mat: fem.Steel(), ClampLeft: true}
	m, err := fem.RectGrid("frame", o)
	if err != nil {
		return nil, err
	}
	ls := fem.EndLoad("tip", o, 0, -2000)
	ref, err := fem.Solve(context.Background(), m, ls, fem.SolveOpts{})
	if err != nil {
		return nil, err
	}
	s, err := fem.PartitionByX(m, subs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E3",
		Title: fmt.Sprintf("condensation of %d substructures (24×6 plate, %d interface dofs) over worker PEs",
			subs, len(s.Interface)),
		Columns: []string{"workers", "makespan", "speedup", "max.error", "net.msgs"},
		Notes:   "independent condensations overlap on distinct PEs; interface solve is the serial tail",
	}
	var base int64
	for _, w := range workerCounts {
		// Exactly w live worker PEs (each cluster spends one PE on its
		// kernel): spread 4-per-cluster when w divides evenly, otherwise
		// one cluster holds them all.
		clusters, pes := 1, w+1
		if w >= 4 && w%4 == 0 {
			clusters, pes = w/4, 5
		}
		cfg := defaultConfig(clusters, pes)
		rt := navm.NewRuntime(arch.MustNew(cfg))
		rt.AttachInstrumentation(obs.New())
		sol, err := fem.SolveSubstructured(context.Background(), m, s, ls, rt)
		if err != nil {
			return nil, err
		}
		span := rt.Machine().Makespan()
		if base == 0 {
			base = span
		}
		t.AddRow(w, span, float64(base)/float64(max(span, 1)),
			linalg.MaxAbsDiff(sol.U, ref.U),
			rt.Machine().Network().TotalMessages())
	}
	return t, nil
}

// E4MultiUser reproduces the top parallelism level plus the multi-user
// hardware requirement: U independent users each solving an independent
// model on one shared machine.  Expected shape: throughput scales with
// users until workers saturate.
func E4MultiUser(userCounts []int) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "independent user requests on one shared machine",
		Columns: []string{"users", "solves", "makespan", "throughput(solves/Mcycle)", "utilization"},
		Notes:   "user requests are independent problems; the machine overlaps them across clusters",
	}
	for _, u := range userCounts {
		sys, err := core.Open(core.Options{Arch: defaultConfig(4, 5)})
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		for i := 0; i < u; i++ {
			sess := sys.Session(fmt.Sprintf("user%d", i))
			name := fmt.Sprintf("m%d", i)
			cmds := []command.Command{
				command.GenerateGrid{Name: name, NX: 8, NY: 6, W: 8, H: 6, ClampLeft: true},
				command.EndLoad{Model: name, Set: "tip", FY: -500},
				command.Solve{Model: name, Set: "tip", Parallel: 4},
			}
			for _, c := range cmds {
				if _, err := sess.Do(ctx, c); err != nil {
					return nil, err
				}
			}
		}
		span := sys.Machine.Makespan()
		t.AddRow(u, u, span, float64(u)*1e6/float64(max(span, 1)), sys.Machine.Utilization())
	}
	return t, nil
}

// E5TaskInitiation reproduces the "large scale dynamic task initiation"
// hardware requirement.  Expected shape: total cost linear in K.  The
// busy cycles of the busiest kernel PE and of the busiest worker PE are
// columns, and the note names the busier kind at the largest K.
func E5TaskInitiation(counts []int) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "dynamic initiation of K task replications",
		Columns: []string{"K", "created", "heap.words", "kernel.msgs", "kernel.busy", "worker.busy", "makespan", "cycles/task"},
	}
	for _, k := range counts {
		cfg := defaultConfig(4, 5)
		rt := navm.NewRuntime(arch.MustNew(cfg))
		reg := obs.New()
		rt.AttachInstrumentation(reg)
		root, err := rt.NewRootTask()
		if err != nil {
			return nil, err
		}
		if err := rt.RegisterTaskType("unit", 64, 8, func(tc *navm.TaskCtx, replica int) error {
			tc.Charge(10)
			return nil
		}); err != nil {
			return nil, err
		}
		// Measure from here so code-block loading is excluded from the
		// per-task storage figure.
		before := reg.Snapshot()
		// Initiate in batches across clusters, as a large forall
		// would.
		batch := 64
		remaining := k
		for remaining > 0 {
			n := batch
			if n > remaining {
				n = remaining
			}
			g, err := root.Initiate("unit", n, nil)
			if err != nil {
				return nil, err
			}
			if err := g.Wait(root); err != nil {
				return nil, err
			}
			remaining -= n
		}
		after := reg.Snapshot()
		created := after.Counter(obs.SPVMTasksInitiated) - before.Counter(obs.SPVMTasksInitiated)
		heap := after.Counter(obs.SPVMWordsAlloc) - before.Counter(obs.SPVMWordsAlloc)
		span := rt.Machine().Makespan()
		var decoded, kernelBusy, workerBusy int64
		for _, kern := range rt.Kernels() {
			decoded += kern.Decoded()
		}
		for _, c := range rt.Machine().Clusters() {
			kernelBusy = max(kernelBusy, c.Kernel.BusyCycles())
			for _, w := range c.Workers {
				workerBusy = max(workerBusy, w.BusyCycles())
			}
		}
		t.AddRow(k, created, heap, decoded, kernelBusy, workerBusy, span, float64(span)/float64(max(int64(k), 1)))
		kind, busy := "worker", workerBusy
		if kernelBusy > workerBusy {
			kind, busy = "kernel", kernelBusy
		}
		t.Notes = fmt.Sprintf("at K=%d the busiest PE is a %s PE, busy %.0f%% of the makespan", k, kind, 100*float64(busy)/float64(max(span, 1)))
	}
	return t, nil
}

// E6WindowAccess reproduces the "remote access to local data (through
// windows)" requirement: the cost of element, row, and block window
// reads, local vs remote.  Expected shape: remote access pays a
// per-message latency, so block windows amortise far better than
// element-at-a-time access.
func E6WindowAccess() (*Table, error) {
	cfg := defaultConfig(2, 4)
	rt := navm.NewRuntime(arch.MustNew(cfg))
	rt.AttachInstrumentation(obs.New())
	root, err := rt.NewRootTask()
	if err != nil {
		return nil, err
	}
	const n = 64
	a, err := root.NewArray("K", n, n)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("window access cost on a %d×%d array", n, n),
		Columns: []string{"pattern", "locality", "words", "accesses", "cycles", "cycles/word"},
		Notes:   "remote element reads pay the full network latency per word; block windows amortise it",
	}
	home := a.HomeCluster()
	remote := (home + 1) % cfg.Clusters
	measure := func(label, locality string, peID int, f func(tc *navm.TaskCtx) (int64, int, error)) error {
		pe := rt.Machine().PE(peID)
		start := pe.Clock()
		tc := root
		words, accesses, err := f(tc)
		if err != nil {
			return err
		}
		cycles := pe.Clock() - start
		t.AddRow(label, locality, words, accesses, cycles, float64(cycles)/float64(max(words, 1)))
		return nil
	}
	// Local accesses run on the root's own PE.
	rootPE := root.PE().ID
	if err := measure("row window", "local", rootPE, func(tc *navm.TaskCtx) (int64, int, error) {
		w, err := navm.RowWindow(a, 0, 1)
		if err != nil {
			return 0, 0, err
		}
		w.Read(tc)
		return w.Words(), 1, nil
	}); err != nil {
		return nil, err
	}
	if err := measure("element loop", "local", rootPE, func(tc *navm.TaskCtx) (int64, int, error) {
		w, err := navm.RowWindow(a, 1, 1)
		if err != nil {
			return 0, 0, err
		}
		for j := 0; j < n; j++ {
			if _, err := w.ReadAt(tc, 0, j); err != nil {
				return 0, 0, err
			}
		}
		return int64(n), n, nil
	}); err != nil {
		return nil, err
	}
	// Remote accesses: run a worker pinned to the other cluster via a
	// direct PE simulation.
	remotePE, err := rt.Machine().PlaceWorkerInCluster(remote)
	if err != nil {
		return nil, err
	}
	// Block read from remote cluster.
	start := remotePE.Clock()
	rt.Machine().RemoteFetch(remotePE.ID, home, n)
	cycles := remotePE.Clock() - start
	t.AddRow("row window", "remote", n, 1, cycles, float64(cycles)/float64(n))
	// Element-at-a-time from remote cluster.
	start = remotePE.Clock()
	for j := 0; j < n; j++ {
		rt.Machine().RemoteFetch(remotePE.ID, home, 1)
	}
	cycles = remotePE.Clock() - start
	t.AddRow("element loop", "remote", n, n, cycles, float64(cycles)/float64(n))
	return t, nil
}

// E7FaultIsolation reproduces the "reconfigurability to isolate faulty
// hardware components" requirement: the same solve re-run with f failed
// PEs.  Expected shape: the solve always completes; makespan grows
// roughly with the lost compute fraction.
func E7FaultIsolation(failCounts []int) (*Table, error) {
	k, b, err := plateSystem(12)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E7",
		Title:   "solve completion under PE failures (4 clusters × 4 workers)",
		Columns: []string{"failed.PEs", "live.workers", "makespan", "overhead", "residual.ok"},
		Notes:   "the machine reroutes work around isolated PEs; overhead tracks the lost capacity",
	}
	var base int64
	for _, f := range failCounts {
		cfg := defaultConfig(4, 5)
		rt := navm.NewRuntime(arch.MustNew(cfg))
		rt.AttachInstrumentation(obs.New())
		m := rt.Machine()
		// Fail f workers spread over clusters (never the kernels).
		failed := 0
		for _, c := range m.Clusters() {
			for _, w := range c.Workers {
				if failed < f {
					m.FailPE(w.ID)
					failed++
				}
			}
		}
		d, err := navm.Partition(k, b, 16)
		if err != nil {
			return nil, err
		}
		x, stats, err := rt.Solve(context.Background(), d, linalg.BackendCG, linalg.IterOpts{})
		if err != nil {
			return nil, err
		}
		resid := linalg.Residual(k, x, b, nil, nil) / linalg.Norm2(b, nil)
		if f == 0 {
			base = stats.Makespan
		}
		overhead := 0.0
		if base > 0 {
			overhead = float64(stats.Makespan-base) / float64(base)
		}
		t.AddRow(f, len(m.LiveWorkers()), stats.Makespan,
			fmt.Sprintf("%.1f%%", 100*overhead), resid < 1e-6)
	}
	return t, nil
}

// E8Programmability reproduces "determine the ease of programming the
// machine at the various levels": the same 16×16 plate solve expressed at
// each layer, counting the operations the programmer at that level must
// write.  Expected shape: roughly an order of magnitude fewer
// user-visible operations per level going up.
func E8Programmability() (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "operations visible to the programmer, same plate solve per level",
		Columns: []string{"level", "user.ops", "objects.touched", "notes"},
		Notes:   "each level hides roughly an order of magnitude of operations from the one above",
	}
	// AUVM: three commands.
	sys, err := core.Open(core.Options{Arch: defaultConfig(2, 4)})
	if err != nil {
		return nil, err
	}
	sess := sys.Session("eng")
	auvmCmds := []command.Command{
		command.GenerateGrid{Name: "plate", NX: 16, NY: 16, W: 16, H: 16, ClampLeft: true},
		command.EndLoad{Model: "plate", Set: "tip", FY: -1000},
		command.Solve{Model: "plate", Set: "tip", Parallel: 4},
	}
	for _, c := range auvmCmds {
		if _, err := sess.Do(context.Background(), c); err != nil {
			return nil, err
		}
	}
	t.AddRow("AUVM", len(auvmCmds), 2, "commands: generate, load, solve")

	// NAVM: the analyst's program executes partition + 9 vector/matrix
	// operations per CG iteration (1 SpMV, 3 inner products, 3 axpys,
	// 1 halo exchange, 1 direction update).
	k, b, err := plateSystem(16)
	if err != nil {
		return nil, err
	}
	const p = 4
	rt := navm.NewRuntime(arch.MustNew(defaultConfig(2, 4)))
	reg := obs.New()
	rt.AttachInstrumentation(reg)
	d, err := navm.Partition(k, b, p)
	if err != nil {
		return nil, err
	}
	_, stats, err := rt.Solve(context.Background(), d, linalg.BackendCG, linalg.IterOpts{})
	if err != nil {
		return nil, err
	}
	navmOps := 3 + 9*stats.Iterations
	t.AddRow("NAVM", navmOps, 4, fmt.Sprintf("9 vector ops × %d iterations", stats.Iterations))

	// SPVM: the system programmer sees every message formatted and
	// decoded — the halo messages the solve actually sent, plus the 2p
	// synchronisation messages behind each of the ~5 barriers per
	// iteration.
	haloMsgs := reg.Counter(obs.NAVMMsgs).Load()
	barriers := int64(5*stats.Iterations + 3)
	spvmOps := 2*haloMsgs + 2*int64(p)*barriers
	t.AddRow("SPVM", spvmOps, 7, "format+decode for every halo and barrier message")

	// ARCH: the cycle-level view.
	cycles := reg.Counter(obs.ARCHCycles).Load()
	t.AddRow("ARCH", cycles, 16*p, "simulated cycles (no programmer abstraction at all)")
	return t, nil
}

// E9ClusterScheduling reproduces "messages arriving in the input queue of
// any cluster can be processed by any available PE": a message storm to
// one cluster, varying the worker pool.  Expected shape: completion falls
// ~1/workers until the kernel decode serialisation dominates.
func E9ClusterScheduling(workerCounts []int) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "message storm dispatch within one cluster",
		Columns: []string{"workers", "messages", "makespan", "ideal", "kernel.bound", "balance"},
		Notes:   "any available PE takes the next message; the kernel PE's decode is the serial floor",
	}
	const msgs = 256
	const work = 2000
	for _, w := range workerCounts {
		cfg := defaultConfig(1, w+1)
		m := arch.MustNew(cfg)
		for i := 0; i < msgs; i++ {
			if _, _, err := m.Send(1, 0, 4, 0, work); err != nil {
				return nil, err
			}
		}
		span := m.Makespan()
		ideal := int64(msgs) * work / int64(w)
		kernelFloor := int64(msgs) * cfg.KernelDecodeCycles
		// Balance: min/max jobs among workers.
		minJ, maxJ := int64(1<<62), int64(0)
		for _, pe := range m.Cluster(0).Workers {
			j := pe.JobsDone()
			if j < minJ {
				minJ = j
			}
			if j > maxJ {
				maxJ = j
			}
		}
		t.AddRow(w, msgs, span, ideal, kernelFloor, fmt.Sprintf("%d/%d", minJ, maxJ))
	}
	return t, nil
}

// E10LinalgKernels reproduces the "fast linear algebra operations"
// requirement: the NAVM-level inner product, axpy, and SpMV over worker
// counts.  Expected shape: axpy scales nearly linearly; the inner product
// saturates on its reduction.
func E10LinalgKernels(workerCounts []int) (*Table, error) {
	k, b, err := plateSystem(16)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E10",
		Title:   fmt.Sprintf("NAVM linear algebra kernels, %d dofs", k.N),
		Columns: []string{"workers", "spmv.cycles", "dot.cycles", "axpy.cycles"},
		Notes:   "dot pays a reduction + barrier; axpy is embarrassingly parallel",
	}
	for _, p := range workerCounts {
		cfg := defaultConfig(max(1, p/4), 6)
		rt := navm.NewRuntime(arch.MustNew(cfg))
		rt.AttachInstrumentation(obs.New())
		d, err := navm.Partition(k, b, p)
		if err != nil {
			return nil, err
		}
		spmv, dot, axpy, err := rt.KernelCycles(d)
		if err != nil {
			return nil, err
		}
		t.AddRow(p, spmv, dot, axpy)
	}
	return t, nil
}

// E11HGraphValidation reproduces the formal-specification evaluation:
// the live values of every specified layer validate against their H-graph
// grammars, and mutants of each are rejected.  The values are the three
// SPVM message types the NAVM sends, the activation records a kernel
// creates for initiate messages and registers for root tasks, NAVM row
// windows, and models read back from the AUVM database; the mutants carry
// an unknown message type, task state, window kind or element kind.
func E11HGraphValidation(instances int) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   fmt.Sprintf("H-graph grammar validation over %d live instances per type", instances),
		Columns: []string{"object", "valid.accepted", "mutants.rejected"},
		Notes: "the formal definitions are executable: the runtime's own messages, activation records, " +
			"windows and stored models are checked",
	}
	ids := spvm.NewIDSource()
	k := spvm.NewKernel(0, 1<<20, ids)
	if _, err := k.Handle(&spvm.Message{Type: spvm.MsgLoadCode, CodeName: "w", CodeWords: 64, LocalWords: 8}); err != nil {
		return nil, err
	}
	owner, err := navm.NewRuntime(arch.MustNew(defaultConfig(1, 2))).NewRootTask()
	if err != nil {
		return nil, err
	}
	arr, err := owner.NewArray("x", instances, 4)
	if err != nil {
		return nil, err
	}
	db := auvm.NewDatabaseOn(store.NewMemStore(), store.BackendMem)

	type row struct {
		name   string
		g      *hgraph.Grammar
		live   func(i int) (*hgraph.Graph, error)
		mutate func(*hgraph.Graph)
	}
	// retag re-points the entry's arc sel at a string atom v.
	retag := func(sel, v string) func(*hgraph.Graph) {
		return func(gr *hgraph.Graph) { gr.Entry().Arc(sel, gr.AddAtom("bad", hgraph.Str(v))) }
	}
	mk := func(i int64) []*spvm.Message {
		return []*spvm.Message{
			{Type: spvm.MsgInitiate, TaskType: "w", Replications: i + 1, Parent: 0, Params: []float64{float64(i)}},
			{Type: spvm.MsgTerminate, Task: spvm.TaskID(i), Parent: 0},
			{Type: spvm.MsgLoadCode, CodeName: "w", CodeWords: i + 1, LocalWords: i},
		}
	}
	var rows []row
	for j, m := range mk(0) {
		rows = append(rows, row{m.Type.String(), hgraph.SPVMMessageGrammar(), func(i int) (*hgraph.Graph, error) {
			return mk(int64(i))[j].ToHGraph(), nil
		}, retag("type", "bogus")})
	}
	// Records of initiate messages and of root tasks in turn.
	rows = append(rows, row{"activation", hgraph.ActivationRecordGrammar(), func(i int) (*hgraph.Graph, error) {
		if i%2 == 1 {
			return k.RegisterRoot(ids.Next()).ToHGraph(), nil
		}
		created, err := k.Handle(&spvm.Message{Type: spvm.MsgInitiate, TaskType: "w", Replications: 1, Params: []float64{float64(i)}})
		if err != nil {
			return nil, err
		}
		return k.Task(created[0]).ToHGraph(), nil
	}, retag("state", "zombie")})
	rows = append(rows, row{"window", hgraph.WindowGrammar(), func(i int) (*hgraph.Graph, error) {
		w, err := navm.RowWindow(arr, i, 1)
		if err != nil {
			return nil, err
		}
		return w.Desc().ToHGraph(), nil
	}, retag("kind", "diagonal")})
	// Plates and trusses in turn, stored and read back.
	rows = append(rows, row{"model", hgraph.StructureModelGrammar(), func(i int) (*hgraph.Graph, error) {
		name := fmt.Sprintf("m%d", i)
		o := fem.RectGridOpts{NX: 1 + i%4, NY: 1 + i%3, W: 2, H: 1, Mat: fem.Steel(), ClampLeft: true}
		m, err := fem.RectGrid(name, o)
		if i%2 == 1 {
			m, err = fem.CantileverTruss(name, 1+i%5, 1, 1, fem.Steel())
		}
		if err == nil {
			err = db.Store(m, []*fem.LoadSet{{Name: "tip", Entries: []fem.LoadEntry{{DOF: fem.DOF(1, 1), Value: -100}}}})
		}
		if err != nil {
			return nil, err
		}
		return db.ModelGraph(name)
	}, func(gr *hgraph.Graph) {
		gr.Entry().Follow("elements").Follow("0").Arc("kind", gr.AddAtom("bad", hgraph.Str("frame")))
	}})

	for _, r := range rows {
		accepted, rejected := 0, 0
		for i := 0; i < instances; i++ {
			gr, err := r.live(i)
			if err != nil {
				return nil, fmt.Errorf("E11 %s %d: %w", r.name, i, err)
			}
			if len(r.g.Validate(gr)) == 0 {
				accepted++
			}
			r.mutate(gr)
			if len(r.g.Validate(gr)) > 0 {
				rejected++
			}
		}
		t.AddRow(r.name, fmt.Sprintf("%d/%d", accepted, instances), fmt.Sprintf("%d/%d", rejected, instances))
	}
	return t, nil
}

// E12SolverComparison compares the three parallel iterative methods the
// FEM literature of the period debated — Jacobi (maximal parallelism,
// slow convergence), multi-colour SOR (Adams' method: SOR convergence
// with Jacobi-like parallelism within each color), and CG — on the same
// distributed system.  Expected shape: multi-colour SOR needs more
// iterations than CG, and plain Jacobi diverges on the plate, stopping
// at its first non-finite residual; makespans order accordingly once the
// problem is large enough.
func E12SolverComparison(n, workers int) (*Table, error) {
	k, b, err := plateSystem(n)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E12",
		Title:   fmt.Sprintf("parallel solver comparison, %d dofs on %d workers", k.N, workers),
		Columns: []string{"method", "iterations", "Mflops", "halo.Mwords", "makespan", "converged"},
		Notes: "CG < multi-colour SOR in iterations; plain Jacobi diverges on plate problems and stops at " +
			"its first non-finite residual — the 1980s reason the FEM machines moved to coloured SOR and CG",
	}
	// SOR runs at ω = 1.8; an omega of 0 selects the default.
	runs := []struct {
		name, backend string
		omega         float64
	}{
		{"cg", linalg.BackendCG, 0},
		{"multicolor-sor", linalg.BackendSOR, 1.8},
		{"jacobi", linalg.BackendJacobi, 0},
	}
	for _, r := range runs {
		rt := navm.NewRuntime(arch.MustNew(defaultConfig(4, 1+workers/4+1)))
		rt.AttachInstrumentation(obs.New())
		d, err := navm.Partition(k, b, workers)
		if err != nil {
			return nil, err
		}
		_, stats, err := rt.Solve(context.Background(), d, r.backend,
			linalg.IterOpts{Tol: 1e-6, MaxIter: 30 * k.N, Omega: r.omega})
		converged := err == nil
		if err != nil && stats.Iterations == 0 {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		t.AddRow(r.name, stats.Iterations, float64(stats.Flops)/1e6,
			float64(stats.HaloWords)/1e6, stats.Makespan, converged)
	}
	return t, nil
}

// E13LatencyAblation sweeps the network latency — the central hardware
// cost the FEM-2 design must choose — and reports the 16-worker CG
// makespan and efficiency at each point.  This is the ablation the
// design-method loop turns: expected shape, makespan grows roughly
// linearly in latency (every barrier and halo pays it), so the design's
// viable cluster count depends directly on the network the budget buys.
func E13LatencyAblation(latencies []int64) (*Table, error) {
	k, b, err := plateSystem(16)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E13",
		Title:   fmt.Sprintf("network latency ablation, 16-worker CG on %d dofs", k.N),
		Columns: []string{"latency", "makespan", "slowdown", "utilization"},
		Notes:   "every inner-product barrier and halo exchange pays the latency; cheap networks buy parallelism",
	}
	var base int64
	for _, lat := range latencies {
		cfg := defaultConfig(4, 6)
		cfg.NetLatency = lat
		rt := navm.NewRuntime(arch.MustNew(cfg))
		rt.AttachInstrumentation(obs.New())
		d, err := navm.Partition(k, b, 16)
		if err != nil {
			return nil, err
		}
		_, stats, err := rt.Solve(context.Background(), d, linalg.BackendCG, linalg.IterOpts{})
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = stats.Makespan
		}
		t.AddRow(lat, stats.Makespan,
			float64(stats.Makespan)/float64(base),
			rt.Machine().Utilization())
	}
	return t, nil
}

// E15RenumberingAblation ablates the node-numbering design choice behind
// the direct-solve baseline: banded Cholesky cost grows with the square
// of the matrix bandwidth, so the 1980s pipeline always ran a
// bandwidth-reducing reordering (reverse Cuthill–McKee) first.  Expected
// shape: on a badly numbered mesh RCM cuts bandwidth and factorisation
// flops dramatically; on a well numbered grid it changes little — the
// ablation shows when the design choice matters.
func E15RenumberingAblation() (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "node renumbering (RCM) ablation for the banded Cholesky baseline",
		Columns: []string{"mesh", "order", "bandwidth", "Mflops", "max.err"},
		Notes:   "banded factorisation cost ~ n·bw²: renumbering is the difference between viable and not",
	}
	cases := []struct {
		name string
		k    *linalg.CSR
	}{}
	// Well numbered grid.
	kGood, _, err := plateSystem(12)
	if err != nil {
		return nil, err
	}
	cases = append(cases, struct {
		name string
		k    *linalg.CSR
	}{"grid-natural", kGood})
	// The same matrix under a structured shuffle (interleave halves) —
	// the bad numbering an ad-hoc mesh generator can produce.
	n := kGood.N
	shuf := make([]int, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			shuf[i] = i / 2
		} else {
			shuf[i] = (n+1)/2 + i/2
		}
	}
	kBad, err := kGood.Permute(shuf)
	if err != nil {
		return nil, err
	}
	cases = append(cases, struct {
		name string
		k    *linalg.CSR
	}{"grid-shuffled", kBad})

	for _, c := range cases {
		want := linalg.NewVector(c.k.N)
		for i := range want {
			want[i] = float64(i%5) - 2
		}
		b := c.k.MulVec(want, nil, nil)
		// Each order solved cold: a fresh factor cache's one plan.
		xNat, nat, err := coldSolve(linalg.BackendCholesky, c.k, b, "")
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name, "natural", c.k.Bandwidth(),
			float64(nat.Flops)/1e6, linalg.MaxAbsDiff(xNat, want))
		pk, err := c.k.Permute(linalg.RCM(c.k))
		if err != nil {
			return nil, err
		}
		xRCM, rcm, err := coldSolve(linalg.BackendCholeskyRCM, c.k, b, "")
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name, "rcm", pk.Bandwidth(),
			float64(rcm.Flops)/1e6, linalg.MaxAbsDiff(xRCM, want))
	}
	return t, nil
}

// E14CommunicationPattern reproduces the paper's core simulation goal
// verbatim: "simulations to measure the ... communication patterns in
// typical FEM-2 applications".  It runs one parallel solve and reports
// the cluster×cluster message-count matrix, for a regular grid and for a
// substructured solve (whose gather pattern is hub-shaped) — two
// distinctly different patterns on the same machine.
func E14CommunicationPattern() (*Table, error) {
	cfg := defaultConfig(4, 5)
	t := &Table{
		ID:      "E14",
		Title:   "cluster-to-cluster message counts (communication patterns)",
		Columns: []string{"workload", "src\\dst", "c0", "c1", "c2", "c3"},
		Notes:   "the grid solve's halo is neighbour-banded; the substructure gather is hub-shaped toward the coordinator",
	}
	addMatrix := func(label string, m [][]int64) {
		for i, row := range m {
			cells := []any{label, fmt.Sprintf("c%d", i)}
			for _, v := range row {
				cells = append(cells, v)
			}
			t.AddRow(cells...)
			label = "" // only print the workload on its first row
		}
	}

	// Regular grid CG: halo traffic between neighbouring row blocks.
	k, b, err := plateSystem(16)
	if err != nil {
		return nil, err
	}
	rt := navm.NewRuntime(arch.MustNew(cfg))
	rt.AttachInstrumentation(obs.New())
	d, err := navm.Partition(k, b, 4)
	if err != nil {
		return nil, err
	}
	if _, _, err := rt.Solve(context.Background(), d, linalg.BackendCG, linalg.IterOpts{}); err != nil {
		return nil, err
	}
	addMatrix("grid-cg", rt.Machine().Network().TrafficMatrix())

	// Substructured solve: condensation results gather to one
	// coordinator cluster.
	o := fem.RectGridOpts{NX: 16, NY: 4, W: 16, H: 4, Mat: fem.Steel(), ClampLeft: true}
	m2, err := fem.RectGrid("comm-frame", o)
	if err != nil {
		return nil, err
	}
	ls := fem.EndLoad("tip", o, 0, -100)
	s, err := fem.PartitionByX(m2, 8)
	if err != nil {
		return nil, err
	}
	rt2 := navm.NewRuntime(arch.MustNew(cfg))
	rt2.AttachInstrumentation(obs.New())
	if _, err := fem.SolveSubstructured(context.Background(), m2, s, ls, rt2); err != nil {
		return nil, err
	}
	addMatrix("substructure", rt2.Machine().Network().TrafficMatrix())
	return t, nil
}

// DesignIteration runs the design-method loop itself over a small
// hardware design space, reporting the iteration history — the paper's
// "several iterations through the four levels are made, adjusting the
// design".
func DesignIteration() (*Table, error) {
	var candidates []arch.Config
	for _, clusters := range []int{1, 2, 4, 8} {
		for _, pes := range []int{3, 5} {
			cfg := defaultConfig(clusters, pes)
			candidates = append(candidates, cfg)
		}
	}
	it := &core.DesignIterator{
		Candidates: candidates,
		Workload: func(sys *core.System) error {
			s := sys.Session("eng")
			for _, c := range []command.Command{
				command.GenerateGrid{Name: "plate", NX: 12, NY: 8, W: 12, H: 8, ClampLeft: true},
				command.EndLoad{Model: "plate", Set: "tip", FY: -1000},
				command.Solve{Model: "plate", Set: "tip", Parallel: 8},
			} {
				if _, err := s.Do(context.Background(), c); err != nil {
					return err
				}
			}
			return nil
		},
	}
	best, history, err := it.Run()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "DM",
		Title:   "design-method iteration over the hardware design space",
		Columns: []string{"iter", "clusters", "PEs/cluster", "makespan", "utilization", "best"},
		Notes: fmt.Sprintf("winner: %d clusters × %d PEs",
			best.Config.Clusters, best.Config.PEsPerCluster),
	}
	for _, h := range history {
		mark := ""
		if h.Best {
			mark = "*"
		}
		t.AddRow(h.Iteration, h.Req.Config.Clusters, h.Req.Config.PEsPerCluster,
			h.Req.Makespan, h.Req.Utilization, mark)
	}
	return t, nil
}

// backendCycles solves by the named method cold — a direct one through a
// fresh factor cache — and converts the flop count into single-PE cycles.
func backendCycles(name string, k *linalg.CSR, b linalg.Vector) (int64, error) {
	_, info, err := coldSolve(name, k, b, "")
	if err != nil {
		return 0, err
	}
	return info.Flops * navm.CyclesPerFlop, nil
}

// coldSolve solves k·x = b sequentially by the named method with
// preconditioner precond, a direct method through a fresh factor cache.
func coldSolve(name string, k *linalg.CSR, b linalg.Vector, precond string) (linalg.Vector, linalg.Info, error) {
	m, err := linalg.Backend(name)
	if err != nil {
		return nil, linalg.Info{}, err
	}
	return m.Solve(context.Background(), new(linalg.FactorCache), k, 0, b, nil, nil, linalg.IterOpts{Precond: precond})
}

// E16SequentialBackends compares every backend in the method table —
// plus CG under each registered preconditioner — on the same plate.
// Because the case list is generated from the registries, a newly
// registered engine appears in this table with no experiment change.
// Expected shape: the direct solvers agree to machine precision and pay
// bandwidth-squared flops; preconditioning cuts the CG iteration count;
// plain Jacobi may exhaust its budget — reported, not fatal.  The
// warm.Mflops column is the cost of a repeat solve: for the direct
// backends it rides a factor cache of the table's own (a triangular
// solve, the factor-once split); an iterative backend repeats its full
// iteration.
func E16SequentialBackends(n int) (*Table, error) {
	k, b, err := plateSystem(n)
	if err != nil {
		return nil, err
	}
	// The plate's K is never written, so one token vouches for its values
	// in every solve through factors.
	const platePass = 1
	factors := new(linalg.FactorCache)
	t := &Table{
		ID:      "E16",
		Title:   fmt.Sprintf("solver engine registry on one %d-dof plate", k.N),
		Columns: []string{"engine", "iters", "Mflops", "warm.Mflops", "residual", "max.err", "converged"},
		Notes: "rows are generated from linalg.Backends()/Preconds(); " +
			"warm.Mflops repeats the solve through the plate's factor cache (direct backends reuse the factor)",
	}
	type engine struct{ backend, precond string }
	var cases []engine
	for _, name := range linalg.Backends() {
		cases = append(cases, engine{name, ""})
		if m, _ := linalg.Backend(name); m.Precond {
			for _, p := range linalg.Preconds() {
				cases = append(cases, engine{name, p})
			}
		}
	}
	ref, _, err := coldSolve(linalg.BackendCholesky, k, b, "")
	if err != nil {
		return nil, err
	}
	for _, c := range cases {
		x, info, err := coldSolve(c.backend, k, b, c.precond)
		if err != nil && !errors.Is(err, linalg.ErrNoConvergence) {
			return nil, fmt.Errorf("%s: %w", c.backend, err)
		}
		label := c.backend
		if info.Precond != "" {
			label += "+" + info.Precond
		}
		warmFlops := info.Flops
		if info.Direct {
			// Prime the cache, then measure the warm repeat.
			if _, _, err := factors.SolveCached(c.backend, k, platePass, b, nil, nil); err != nil {
				return nil, fmt.Errorf("%s warm: %w", c.backend, err)
			}
			warmSt := &linalg.Stats{}
			xw, refac, err := factors.SolveCached(c.backend, k, platePass, b, nil, warmSt)
			if err != nil {
				return nil, fmt.Errorf("%s warm: %w", c.backend, err)
			}
			if refac {
				return nil, fmt.Errorf("%s: repeat solve refactored a warm cache", c.backend)
			}
			if d := linalg.MaxAbsDiff(xw, x); d != 0 {
				return nil, fmt.Errorf("%s: warm solve differs from cold by %g", c.backend, d)
			}
			warmFlops = warmSt.Flops
		}
		t.AddRow(label, info.Iterations, float64(info.Flops)/1e6, float64(warmFlops)/1e6,
			info.Residual, linalg.MaxAbsDiff(x, ref), err == nil)
	}
	return t, nil
}

// RunAll executes every experiment with its default parameters and
// returns the tables in order; cmd/fem2sim prints them.
func RunAll() ([]*Table, error) {
	var out []*Table
	runs := []func() (*Table, error){
		func() (*Table, error) { return E1Requirements([]int{8, 16, 24, 32}, 8) },
		func() (*Table, error) { return E2SolverSpeedup(24, []int{1, 2, 4, 8, 16}) },
		func() (*Table, error) { return E3Substructure([]int{1, 2, 4, 8}) },
		func() (*Table, error) { return E4MultiUser([]int{1, 2, 4, 8}) },
		func() (*Table, error) { return E5TaskInitiation([]int{10, 100, 1000}) },
		E6WindowAccess,
		func() (*Table, error) { return E7FaultIsolation([]int{0, 1, 2, 4}) },
		E8Programmability,
		func() (*Table, error) { return E9ClusterScheduling([]int{2, 4, 8}) },
		func() (*Table, error) { return E10LinalgKernels([]int{1, 4, 16}) },
		func() (*Table, error) { return E11HGraphValidation(50) },
		func() (*Table, error) { return E12SolverComparison(8, 4) },
		func() (*Table, error) { return E13LatencyAblation([]int64{0, 50, 200, 800}) },
		E14CommunicationPattern,
		E15RenumberingAblation,
		func() (*Table, error) { return E16SequentialBackends(8) },
		DesignIteration,
	}
	for _, r := range runs {
		t, err := r()
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}
