package auvm

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/fem"
	"repro/internal/job"
	"repro/internal/navm"
	"repro/internal/obs"
)

// ErrQuit is returned by Do and Execute when the user issues the quit
// command; the REPL loop treats it as a clean shutdown.
var ErrQuit = errs.ErrQuit

// Session is one interactive user of the FEM-2 workstation: a workspace
// of local data, a shared database, and (optionally) a NAVM runtime for
// parallel solution.  The session is an interpreter over the typed
// command AST — the AUVM sequence control, "direct interpretation of
// user commands" — with Do as the programmatic entry point and Execute
// as the command-line adapter over it.
//
// The session's own command loop is one goroutine, but a session with a
// job scheduler attached (Jobs non-nil) is a concurrent front end:
// SubmitAsync — and the submit verb — route heavy commands through the
// scheduler's workers, which re-enter the interpreter (DoHeld) on
// worker goroutines, and cheap commands run inline on each submitter's
// goroutine.  That is safe because every piece of session state a verb
// touches is mutex-guarded — the workspace, the database, and the
// interpreter-local state below (stateMu) — and because a model is only
// ever touched by whoever holds it in the scheduler: a job holds its
// model while it runs, and Do holds the model a synchronous command
// names in the same way.  A synchronous solve waits for the model; any
// other synchronous command that finds it held is refused with an error
// naming the holder (wait for the job, or submit the edit and it queues
// behind it).  A session without a scheduler has no such guard and is
// for one goroutine.
type Session struct {
	// User names the session for multi-user experiments.
	User string
	// WS is the session's workspace.
	WS *Workspace
	// DB is the shared long-term database.
	DB *Database
	// RT, when non-nil, enables Solve{Parallel: p}.
	RT *navm.Runtime
	// Jobs, when non-nil, is the system's job scheduler: it enables
	// SubmitAsync and the submit/status/wait/cancel/jobs verbs.
	// Sessions created through core.System get it wired automatically.
	Jobs *job.Scheduler
	// Health, when non-nil, reports whether the system's store has
	// degraded to read-only; ping and version surface it.  Nil means
	// healthy (a standalone session has no degradation machinery).
	Health func() bool
	// Obs, when non-nil, is the system's live-metrics registry: every
	// command counts in its auvm.ops, the stats verb snapshots it, and
	// ping/version replies carry its uptime.  A standalone session
	// leaves it nil, counts nothing, and stats answers an empty snapshot.
	Obs *obs.Registry
	// opsOnce resolves ops, the auvm.ops counter, from Obs on the first
	// command.
	opsOnce sync.Once
	ops     *obs.Counter

	// stateMu guards the interpreter-local state below.  Cheap verbs
	// run inline on submitter goroutines, so two SubmitAsync calls on
	// one session may interpret commands concurrently.
	stateMu sync.Mutex
	// hSolve is job.latency.solve.<backend>, resolved from Obs by the
	// first solve.
	hSolve *obs.HistogramFamily
	// mat is the current material, applied by generate/element
	// commands.
	mat fem.Material
}

// NewSession builds a session over a shared database.
func NewSession(user string, db *Database) *Session {
	return &Session{
		User: user, WS: NewWorkspace(), DB: db,
		mat: fem.Steel(),
	}
}

// countOp charges one AUVM operation.
func (s *Session) countOp() {
	s.opsOnce.Do(func() { s.ops = s.Obs.Counter(obs.AUVMOps) })
	s.ops.Inc()
}

// usage is the shared syntax-error constructor.
var usage = errs.Usage

// cancelled converts a context cancellation into the shared taxonomy,
// keeping the context's own error in the chain for errors.Is.
func cancelled(ctx context.Context) error { return errs.Cancelled(ctx) }

// degraded consults the Health hook; sessions without one are healthy.
func (s *Session) degraded() bool { return s.Health != nil && s.Health() }

// statsResult converts an obs snapshot into the typed stats reply.  The
// snapshot arrives sorted by metric name, and the conversion preserves
// order, so the result's rendering is deterministic — and a result
// decoded from the wire renders byte-identically to the serving side.
func statsResult(snap obs.Snapshot) *command.StatsResult {
	res := &command.StatsResult{UptimeSeconds: snap.UptimeSeconds}
	for _, c := range snap.Counters {
		res.Counters = append(res.Counters, command.StatEntry{Name: c.Name, Value: c.Value})
	}
	for _, g := range snap.Gauges {
		res.Gauges = append(res.Gauges, command.StatEntry{Name: g.Name, Value: g.Value})
	}
	for _, h := range snap.Histograms {
		sh := command.StatHistogram{Name: h.Name, Count: h.Count, SumNS: h.SumNS}
		for _, b := range h.Buckets {
			sh.Buckets = append(sh.Buckets, command.StatBucket{Pow: b.Pow, Count: b.Count})
		}
		res.Histograms = append(res.Histograms, sh)
	}
	return res
}

// Execute interprets one command line and returns its display output.
// It is ExecuteContext under context.Background() — the no-deadline
// spelling for REPLs and scripts.
func (s *Session) Execute(line string) (string, error) {
	return s.ExecuteContext(context.Background(), line)
}

// ExecuteContext interprets one command line under a context and returns
// its display output.  It is a thin adapter over the typed API: parse
// the line, Do the command, render the result — so the string API has
// the same cancellation story as Do: once ctx is done the command
// returns an error wrapping errs.ErrCancelled.
func (s *Session) ExecuteContext(ctx context.Context, line string) (string, error) {
	cmd, err := command.Parse(line)
	if err != nil {
		// A malformed line still counts as an AUVM operation, exactly
		// as the pre-AST interpreter charged it.
		s.countOp()
		return "", err
	}
	if cmd == nil { // blank line or comment
		return "", nil
	}
	res, err := s.Do(ctx, cmd)
	if res == nil {
		return "", err
	}
	return res.String(), err
}

// SubmitAsync hands a command to the system's job scheduler and returns
// its job id immediately.  Heavy verbs (solves) run on the scheduler's
// workers, serialized per model; cheap verbs run inline before
// SubmitAsync returns, but still leave a job record, so the
// submit→status→wait surface is uniform.  The job runs under a context
// derived from ctx — cancelling ctx, or Jobs.Cancel, cancels it.
func (s *Session) SubmitAsync(ctx context.Context, cmd command.Command) (job.JobID, error) {
	if s.Jobs == nil {
		return 0, errNoScheduler
	}
	return s.Jobs.Submit(ctx, s.User, s, cmd)
}

// Do interprets one typed command and returns its typed result.  It
// checks ctx before starting and again before each long-running solve
// phase, returning an error wrapping errs.ErrCancelled (and the context's own
// error) once ctx is done — so a server can impose per-request deadlines
// on one-goroutine-per-session traffic.  Quit returns QuitResult
// alongside ErrQuit.  With a scheduler attached, a command that names a
// model holds it while it runs, as a job would (job.Scheduler.Hold).
func (s *Session) Do(ctx context.Context, cmd command.Command) (command.Result, error) {
	if s.Jobs != nil {
		if model := command.ModelOf(cmd); model != "" {
			if err := s.Jobs.Hold(ctx, s.User, model, cmd); err != nil {
				s.countOp() // shed, but counted
				return nil, err
			}
			defer s.Jobs.Release(s.User, model)
		}
	}
	return s.DoHeld(ctx, cmd)
}

// DoHeld is Do for a caller that already holds the command's model: the
// scheduler, running a job (job.Executor).
func (s *Session) DoHeld(ctx context.Context, cmd command.Command) (command.Result, error) {
	if cmd == nil {
		return nil, nil
	}
	// Pointer commands satisfy the interface too (value-receiver method
	// sets) — deref so both spellings dispatch.
	cmd = command.Value(cmd)
	// Charge the op before the cancellation check so request accounting
	// sees every command, shed or served — matching Execute, which
	// charges even malformed lines.  Exactly one op per command: the job
	// scheduler records the same 1 for a job it dispatched here.
	s.countOp()
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	switch c := cmd.(type) {
	case command.Help:
		return &command.HelpResult{}, nil
	case command.Ping:
		return &command.PingResult{Degraded: s.degraded(), UptimeSeconds: s.Obs.UptimeSeconds()}, nil
	case command.Version:
		res := &command.VersionResult{Server: "fem2", Release: command.Release,
			Protocol: command.ProtocolVersion, Degraded: s.degraded(),
			UptimeSeconds: s.Obs.UptimeSeconds()}
		if s.DB != nil {
			res.Storage = s.DB.Backend()
		}
		return res, nil
	case command.Stats:
		return statsResult(s.Obs.Snapshot()), nil
	case command.Quit:
		return &command.QuitResult{}, ErrQuit
	case command.Define:
		return s.doDefine(c)
	case command.SetMaterial:
		return s.doMaterial(c)
	case command.GenerateGrid:
		return s.doGenerateGrid(c)
	case command.GenerateTruss:
		return s.doGenerateTruss(c)
	case command.GenerateBar:
		return s.doGenerateBar(c)
	case command.AddNode:
		return s.doNode(c)
	case command.AddBar:
		return s.doAddBar(c)
	case command.AddCST:
		return s.doAddCST(c)
	case command.FixNode:
		return s.doFixNode(c)
	case command.FixDOF:
		return s.doFixDOF(c)
	case command.DefineLoadSet:
		return s.doLoadSet(c)
	case command.AddLoad:
		return s.doAddLoad(c)
	case command.EndLoad:
		return s.doEndLoad(c)
	case command.Solve:
		return s.doSolve(ctx, c)
	case command.Stresses:
		return s.doStresses(c)
	case command.Display:
		return s.doDisplay(c)
	case command.Store:
		return s.doStore(c)
	case command.Retrieve:
		return s.doRetrieve(c)
	case command.Delete:
		return s.doDelete(c)
	case command.List:
		return s.doList(c)
	case command.Snapshot:
		return s.doSnapshot(c)
	case command.Restore:
		return s.doRestore(ctx, c)
	case command.Submit:
		return s.doSubmit(ctx, c)
	case command.Status:
		return s.doJobStatus(c)
	case command.Wait:
		return s.doWait(ctx, c)
	case command.Cancel:
		return s.doCancel(c)
	case command.Jobs:
		return s.doJobs(c)
	default:
		return nil, usage("unknown command type %T", cmd)
	}
}

// errNoScheduler reports a job verb on a session without a front end.
var errNoScheduler = errors.New("auvm: session has no job scheduler attached (no front end)")

// stateName maps a scheduler state onto the command language's canonical
// name.
func stateName(st job.State) command.JobState { return command.JobState(st.String()) }

func (s *Session) doSubmit(ctx context.Context, c command.Submit) (command.Result, error) {
	id, err := s.SubmitAsync(ctx, c.Cmd)
	if err != nil {
		return nil, err
	}
	// Report the state as of submit time: a heavy command was queued
	// (re-reading it here would race the workers and make the reply
	// nondeterministic); a cheap command ran inline and is terminal.
	res := &command.SubmitResult{ID: int64(id), State: command.JobQueued,
		Cmd: command.Value(c.Cmd).String()}
	if !command.PropsOf(c.Cmd).Has(command.Heavy) {
		if snap, err := s.Jobs.Status(id); err == nil {
			res.State = stateName(snap.State)
		}
	}
	return res, nil
}

func (s *Session) doJobStatus(c command.Status) (command.Result, error) {
	if s.Jobs == nil {
		return nil, errNoScheduler
	}
	snap, err := s.Jobs.Status(job.JobID(c.ID))
	if err != nil {
		return nil, err
	}
	res := &command.JobStatusResult{
		ID: int64(snap.ID), Owner: snap.Owner, State: stateName(snap.State),
		Cmd: snap.Cmd.String(),
		Ops: snap.Ops, Flops: snap.Flops, Cycles: snap.Cycles,
	}
	if snap.State == job.Failed && snap.Err != nil {
		res.Error = snap.Err.Error()
	}
	return res, nil
}

// doWait blocks until the job finishes and returns the job's own typed
// result and error — submit…wait displays exactly what the synchronous
// command would have.
func (s *Session) doWait(ctx context.Context, c command.Wait) (command.Result, error) {
	if s.Jobs == nil {
		return nil, errNoScheduler
	}
	return s.Jobs.Wait(ctx, job.JobID(c.ID))
}

func (s *Session) doCancel(c command.Cancel) (command.Result, error) {
	if s.Jobs == nil {
		return nil, errNoScheduler
	}
	st, err := s.Jobs.Cancel(job.JobID(c.ID))
	if err != nil {
		return nil, err
	}
	return &command.CancelResult{ID: c.ID, State: stateName(st)}, nil
}

func (s *Session) doJobs(c command.Jobs) (command.Result, error) {
	if s.Jobs == nil {
		return nil, errNoScheduler
	}
	f := job.Filter{Owner: c.Owner}
	if c.State != "" {
		st, err := job.ParseState(string(c.State))
		if err != nil {
			return nil, err
		}
		f.States = []job.State{st}
	}
	snaps, err := s.Jobs.List(f)
	if err != nil {
		return nil, err
	}
	res := &command.JobsResult{Rows: make([]command.JobRow, len(snaps))}
	for i, snap := range snaps {
		res.Rows[i] = command.JobRow{
			ID: int64(snap.ID), Owner: snap.Owner,
			State: stateName(snap.State), Cmd: snap.Cmd.String(),
		}
	}
	return res, nil
}

func (s *Session) doDefine(c command.Define) (command.Result, error) {
	if s.WS.Model(c.Name) != nil {
		// A name collision is a state conflict, not a usage or
		// not-found condition — deliberately outside the taxonomy.
		return nil, fmt.Errorf("auvm: model %q already in workspace", c.Name)
	}
	s.WS.PutModel(fem.NewModel(c.Name))
	return &command.DefineResult{Name: c.Name}, nil
}

func (s *Session) doMaterial(c command.SetMaterial) (command.Result, error) {
	if c.E <= 0 {
		return nil, usage("modulus must be positive")
	}
	s.stateMu.Lock()
	s.mat = fem.Material{E: c.E, Nu: c.Nu, T: c.T, A: c.A}
	s.stateMu.Unlock()
	return &command.MaterialResult{E: c.E, Nu: c.Nu, T: c.T, A: c.A}, nil
}

func (s *Session) doGenerateGrid(c command.GenerateGrid) (command.Result, error) {
	o := fem.RectGridOpts{
		NX: c.NX, NY: c.NY, W: c.W, H: c.H, Mat: s.material(),
		ClampLeft: c.ClampLeft, Jitter: c.Jitter, Seed: c.Seed,
	}
	m, err := fem.RectGrid(c.Name, o)
	if err != nil {
		return nil, err
	}
	s.WS.PutGrid(m, o)
	return &command.GenerateResult{Kind: "grid", Name: c.Name,
		Nodes: len(m.Nodes), Elements: len(m.Elements)}, nil
}

func (s *Session) doGenerateTruss(c command.GenerateTruss) (command.Result, error) {
	m, err := fem.CantileverTruss(c.Name, c.Bays, c.BayLen, c.Height, s.material())
	if err != nil {
		return nil, err
	}
	s.WS.PutModel(m)
	return &command.GenerateResult{Kind: "truss", Name: c.Name,
		Nodes: len(m.Nodes), Elements: len(m.Elements)}, nil
}

func (s *Session) doGenerateBar(c command.GenerateBar) (command.Result, error) {
	m, err := fem.UniaxialBar(c.Name, c.Segments, c.Length, s.material())
	if err != nil {
		return nil, err
	}
	s.WS.PutModel(m)
	return &command.GenerateResult{Kind: "bar", Name: c.Name,
		Nodes: len(m.Nodes), Elements: c.Segments}, nil
}

// material reads the session's current material under the state lock.
func (s *Session) material() fem.Material {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.mat
}

func (s *Session) model(name string) (*fem.Model, error) {
	m := s.WS.Model(name)
	if m == nil {
		return nil, fmt.Errorf("auvm: no model %q in workspace (retrieve it first?): %w",
			name, errs.ErrNotFound)
	}
	return m, nil
}

func (s *Session) doNode(c command.AddNode) (command.Result, error) {
	m, err := s.model(c.Model)
	if err != nil {
		return nil, err
	}
	id := m.AddNode(c.X, c.Y)
	return &command.NodeResult{ID: id, X: c.X, Y: c.Y}, nil
}

func (s *Session) doAddBar(c command.AddBar) (command.Result, error) {
	m, err := s.model(c.Model)
	if err != nil {
		return nil, err
	}
	if err := m.AddElement(&fem.Bar{N1: c.N1, N2: c.N2, Mat: s.material()}); err != nil {
		return nil, err
	}
	return &command.ElementResult{Kind: "bar", Model: m.Name, Nodes: []int{c.N1, c.N2}}, nil
}

func (s *Session) doAddCST(c command.AddCST) (command.Result, error) {
	m, err := s.model(c.Model)
	if err != nil {
		return nil, err
	}
	if err := m.AddElement(&fem.CST{N1: c.N1, N2: c.N2, N3: c.N3, Mat: s.material()}); err != nil {
		return nil, err
	}
	return &command.ElementResult{Kind: "cst", Model: m.Name, Nodes: []int{c.N1, c.N2, c.N3}}, nil
}

func (s *Session) doFixNode(c command.FixNode) (command.Result, error) {
	m, err := s.model(c.Model)
	if err != nil {
		return nil, err
	}
	if err := m.FixNode(c.Node); err != nil {
		return nil, err
	}
	return &command.FixResult{What: "node", Index: c.Node}, nil
}

func (s *Session) doFixDOF(c command.FixDOF) (command.Result, error) {
	m, err := s.model(c.Model)
	if err != nil {
		return nil, err
	}
	if err := m.FixDOF(c.DOF); err != nil {
		return nil, err
	}
	return &command.FixResult{What: "dof", Index: c.DOF}, nil
}

func (s *Session) doLoadSet(c command.DefineLoadSet) (command.Result, error) {
	if err := s.WS.PutLoadSet(c.Model, &fem.LoadSet{Name: c.Set}); err != nil {
		return nil, err
	}
	return &command.LoadSetResult{Model: c.Model, Set: c.Set}, nil
}

func (s *Session) doAddLoad(c command.AddLoad) (command.Result, error) {
	// A load names a dof of the model as it stands, as an element names
	// its nodes: one past the model is refused before anything changes.
	if m := s.WS.Model(c.Model); m != nil {
		if err := m.CheckLoad(c.DOF); err != nil {
			return nil, err
		}
	}
	ls := s.WS.LoadSet(c.Model, c.Set)
	if ls == nil {
		ls = &fem.LoadSet{Name: c.Set}
		if err := s.WS.PutLoadSet(c.Model, ls); err != nil {
			return nil, err
		}
	}
	ls.Entries = append(ls.Entries, fem.LoadEntry{DOF: c.DOF, Value: c.Value})
	return &command.LoadResult{DOF: c.DOF, Value: c.Value, Entries: len(ls.Entries)}, nil
}

func (s *Session) doEndLoad(c command.EndLoad) (command.Result, error) {
	o, ok := s.WS.GridOpts(c.Model)
	if !ok {
		return nil, usage("endload requires a generated grid model")
	}
	ls := fem.EndLoad(c.Set, o, c.FX, c.FY)
	if err := s.WS.PutLoadSet(c.Model, ls); err != nil {
		return nil, err
	}
	return &command.EndLoadResult{Set: c.Set, Entries: len(ls.Entries)}, nil
}

func (s *Session) doSolve(ctx context.Context, c command.Solve) (command.Result, error) {
	m, err := s.model(c.Model)
	if err != nil {
		return nil, err
	}
	ls := s.WS.LoadSet(c.Model, c.Set)
	if ls == nil {
		return nil, fmt.Errorf("auvm: no load set %q on model %q: %w",
			c.Set, c.Model, errs.ErrNotFound)
	}
	// The model owns everything a re-solve reuses — assembly and factors
	// — so synchronous solves and jobs on it share both; this only points
	// their counters at the system registry (resolved once per model).
	m.Instrument(s.Obs)
	// One context-aware solve path: the command maps onto SolveOpts and
	// fem.SolveInto routes to sequential, distributed, or substructured
	// execution by a method of linalg's method table (a direct one
	// through the model's factor cache), writing over the solution the
	// model's last solve replaced.
	start := time.Now()
	spare, _ := s.WS.spares(c.Model)
	sol, err := fem.SolveInto(ctx, m, ls, fem.SolveOpts{
		Backend:       string(c.Method),
		Precond:       string(c.Precond),
		Parallel:      c.Parallel,
		Substructured: c.Substructures,
		RT:            s.RT,
	}, spare)
	if err != nil {
		return nil, err
	}
	// A substructured solve condenses directly whatever method was asked
	// (sol.Backend echoes the request, as SolveResult.Backend shows), so
	// its time goes under its own name.
	ran := sol.Backend
	if c.Substructures > 0 {
		ran = "substructured"
	}
	s.observeSolve(ran, time.Since(start))
	res := &command.SolveResult{
		Model: c.Model, Set: c.Set,
		Backend: sol.Backend, Precond: sol.Precond,
		Substructures: c.Substructures,
		Iterations:    sol.Iterations, Residual: sol.Residual,
		Flops: sol.Stats.Flops, Refactored: sol.Refactored,
	}
	// Par is set exactly when the distributed path ran (a substructured
	// request outranks parallel), and carries the worker count the
	// partition settled on, which is at most the count asked for.
	if sol.Par != nil {
		res.Parallel = sol.Par.Workers
		res.HaloWords = sol.Par.HaloWords
		res.Makespan = sol.Par.Makespan
	}
	s.WS.PutSolution(c.Model, sol)
	res.MaxDOF, res.MaxDisp = MaxDisplacement(sol)
	return res, nil
}

// observeSolve records one solve's wall time under the method that
// actually ran: its backend, or "substructured" for a condensation.  Sync
// and scheduled solves both pass through here, so one histogram family
// covers both paths.
func (s *Session) observeSolve(backend string, d time.Duration) {
	s.stateMu.Lock()
	if s.hSolve == nil {
		s.hSolve = s.Obs.HistogramFamily(obs.JobLatencySolvePrefix)
	}
	h := s.hSolve
	s.stateMu.Unlock()
	h.Get(backend).Observe(d)
}

func (s *Session) doStresses(c command.Stresses) (command.Result, error) {
	m, err := s.model(c.Model)
	if err != nil {
		return nil, err
	}
	sol := s.WS.solution(c.Model)
	if sol == nil {
		return nil, fmt.Errorf("auvm: model %q has no solution (solve first): %w",
			c.Model, errs.ErrNotFound)
	}
	_, spare := s.WS.spares(c.Model)
	st, err := fem.StressesInto(m, sol, spare)
	if err != nil {
		return nil, err
	}
	s.WS.PutStresses(c.Model, st)
	elem, vm := MaxVonMises(st)
	return &command.StressesResult{Model: c.Model, Elements: len(st),
		MaxVonMises: vm, MaxElem: elem}, nil
}

func (s *Session) doDisplay(c command.Display) (command.Result, error) {
	switch c.What {
	case command.DisplayModel:
		m, err := s.model(c.Model)
		if err != nil {
			return nil, err
		}
		kinds := map[string]int{}
		for _, e := range m.Elements {
			kinds[e.Kind()]++
		}
		return &command.ModelInfoResult{Name: c.Model, Nodes: len(m.Nodes),
			DOFs: m.NumDOF(), Fixed: m.NumFixed(), ElementCounts: kinds}, nil
	case command.DisplayDisplacements:
		sol := s.WS.solution(c.Model)
		if sol == nil {
			return nil, fmt.Errorf("auvm: model %q has no solution: %w",
				c.Model, errs.ErrNotFound)
		}
		dof, v := MaxDisplacement(sol)
		return &command.DisplacementsResult{Model: c.Model, MaxDisp: v, MaxDOF: dof,
			Norm: displacementNorm(sol)}, nil
	case command.DisplayStresses:
		st := s.WS.stresses(c.Model)
		if st == nil {
			return nil, fmt.Errorf("auvm: model %q has no stresses: %w",
				c.Model, errs.ErrNotFound)
		}
		elem, vm := MaxVonMises(st)
		return &command.StressSummaryResult{Model: c.Model, MaxVonMises: vm,
			MaxElem: elem, Elements: len(st)}, nil
	default:
		return nil, usage("display model|displacements|stresses")
	}
}

func (s *Session) doStore(c command.Store) (command.Result, error) {
	m, err := s.model(c.Model)
	if err != nil {
		return nil, err
	}
	var loads []*fem.LoadSet
	for _, n := range s.WS.LoadSetNames(c.Model) {
		loads = append(loads, s.WS.LoadSet(c.Model, n))
	}
	if err := s.DB.Store(m, loads); err != nil {
		return nil, err
	}
	return &command.StoreResult{Name: c.Model, LoadSets: len(loads)}, nil
}

func (s *Session) doRetrieve(c command.Retrieve) (command.Result, error) {
	m, loads, err := s.DB.Retrieve(c.Name)
	if err != nil {
		return nil, err
	}
	s.WS.restore([]savedEntry{{model: m, loads: loads}})
	return &command.RetrieveResult{Name: c.Name, LoadSets: len(loads)}, nil
}

func (s *Session) doDelete(c command.Delete) (command.Result, error) {
	found, err := s.DB.Delete(c.Name)
	if err != nil {
		return nil, fmt.Errorf("auvm: delete model %q: %w", c.Name, err)
	}
	if !found {
		return nil, fmt.Errorf("auvm: model %q not in database: %w", c.Name, ErrNotFound)
	}
	return &command.DeleteResult{Name: c.Name}, nil
}

func (s *Session) doList(c command.List) (command.Result, error) {
	switch c.What {
	case command.ListDB:
		names, size, err := s.DB.List()
		if err != nil {
			return nil, fmt.Errorf("auvm: list db: %w", err)
		}
		return &command.ListResult{What: c.What, Names: names, Bytes: size}, nil
	case command.ListWorkspace:
		return &command.ListResult{What: c.What, Names: s.WS.ModelNames(), Words: s.WS.Words()}, nil
	default:
		return nil, usage("list db|workspace")
	}
}

// Run drives the session as a REPL: one command per line, output and
// errors written to w, until EOF or quit.  It is RunContext under
// context.Background().
func (s *Session) Run(r io.Reader, w io.Writer) error {
	return s.RunContext(context.Background(), r, w)
}

// RunContext is REPL over the session: every command executes under
// ctx, so cancelling it (a SIGINT, a server shutdown) interrupts an
// in-flight solve and ends the loop.
func (s *Session) RunContext(ctx context.Context, r io.Reader, w io.Writer) error {
	return REPL(ctx, r, w, s.ExecuteContext)
}

// REPL is the loop of a local session and of a remote one (client.Run):
// each line of r is executed, and its output and `error: ...` lines go to
// w in one Write, until EOF, quit, or a done ctx (errs.ErrCancelled).
func REPL(ctx context.Context, r io.Reader, w io.Writer, execute func(context.Context, string) (string, error)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		out, err := execute(ctx, sc.Text())
		quit := errors.Is(err, ErrQuit)
		if out != "" {
			out += "\n"
		}
		if err != nil && !quit {
			out += fmt.Sprintf("error: %v\n", err)
		}
		if out != "" {
			io.WriteString(w, out)
		}
		if quit {
			return nil
		}
		if ctx.Err() != nil {
			return cancelled(ctx)
		}
	}
	return sc.Err()
}
