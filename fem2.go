// Package fem2 is the public API of the FEM-2 reproduction: a complete
// implementation of the system designed in "The FEM-2 Design Method"
// (Pratt, Adams, Mehrotra, Van Rosendale, Voigt, Patrick; NASA CR-172197
// / ICASE 83-41, 1983).
//
// FEM-2 is a parallel computer for structural analysis by finite element
// methods, designed top-down as four layers of virtual machine, each
// formally specified with H-graph semantics:
//
//	AUVM — the application user's machine (interactive command language,
//	       model database, workspaces),
//	NAVM — the numerical analyst's machine (tasks, task-owned arrays,
//	       row windows, distributed CG, Jacobi and SOR),
//	SPVM — the system programmer's machine (the seven task messages,
//	       activation records, ready queues, a variable-size-block heap),
//	ARCH — the hardware (clusters of PEs around shared memories, joined
//	       by a communication network, one kernel PE per cluster).
//
// The hardware was never fabricated; per the paper's own method it is
// evaluated by simulation.  New builds the whole stack over a
// simulated machine; Session gives an interactive workstation; the
// experiment runners regenerate the paper's evaluation (package exp,
// cmd/fem2sim).
//
// Quick start, typed API:
//
//	sys, _ := fem2.New(fem2.WithClusters(4), fem2.WithPEsPerCluster(8))
//	s := sys.Session("engineer")
//	ctx := context.Background()
//	s.Do(ctx, fem2.GenerateGrid{Name: "wing", NX: 16, NY: 8, W: 16, H: 8, ClampLeft: true})
//	s.Do(ctx, fem2.EndLoad{Model: "wing", Set: "cruise", FY: -1000})
//	res, _ := s.Do(ctx, fem2.SolveCommand{Model: "wing", Set: "cruise", Parallel: 8})
//	sr := res.(*fem2.SolveResult) // typed fields: Iterations, Makespan, MaxDisp ...
//
// Quick start, command language (the same layer through the Parse
// adapter):
//
//	sys, _ := fem2.New()
//	s := sys.Session("engineer")
//	s.Execute("generate grid wing 16 8 16 8 clamp-left")
//	s.Execute("load wing cruise endload 0 -1000")
//	out, _ := s.Execute("solve wing cruise parallel 8")
//	fmt.Println(out)
//
// Quick start, asynchronous job service (the concurrent multi-tenant
// front end — many sessions submit, monitor, and cancel long-running
// work on one shared scheduler; solves on different models run in
// parallel, solves on one model serialize):
//
//	sys, _ := fem2.New(fem2.WithWorkers(8))
//	defer sys.Close()
//	s := sys.Session("engineer")
//	s.Do(ctx, fem2.GenerateGrid{Name: "wing", NX: 16, NY: 8, W: 16, H: 8, ClampLeft: true})
//	s.Do(ctx, fem2.EndLoad{Model: "wing", Set: "cruise", FY: -1000})
//	id, _ := s.SubmitAsync(ctx, fem2.SolveCommand{Model: "wing", Set: "cruise"})
//	// ... the solve runs on the worker pool; monitor or cancel it:
//	snap, _ := sys.Jobs.Status(id)   // queued / running / done ...
//	res, err := sys.Jobs.Wait(ctx, id) // the same *SolveResult Do returns
//	_, _, _ = snap, res, err
//
// The command language speaks the same job API — `submit solve wing
// cruise`, `status job-1`, `wait job-1`, `cancel job-1`, `jobs user
// engineer state running` — so a REPL user and an RPC front end share
// one scheduler.
package fem2

import (
	"context"

	"repro/internal/arch"
	"repro/internal/auvm"
	"repro/internal/client"
	"repro/internal/command"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/exp"
	"repro/internal/fem"
	"repro/internal/hgraph"
	"repro/internal/job"
	"repro/internal/linalg"
	"repro/internal/navm"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
)

// Config describes a FEM-2 hardware configuration: cluster count, PEs per
// cluster, shared memory size, and the network/memory/kernel cost model.
type Config = arch.Config

// DefaultConfig returns the baseline 4-cluster × 8-PE machine.
func DefaultConfig() Config { return arch.DefaultConfig() }

// System is a complete FEM-2 instance: simulated hardware, per-cluster
// kernels, the NAVM runtime, the shared model database, user sessions,
// and machine-wide instrumentation.
type System = core.System

// Option adjusts one dimension of the system New builds: the simulated
// hardware, the front end's job scheduler bound, the storage backend.
type Option func(*core.Options)

// WithClusters sets the number of PE clusters.
func WithClusters(n int) Option { return func(o *core.Options) { o.Arch.Clusters = n } }

// WithPEsPerCluster sets the PEs in each cluster (including the kernel
// PE, so each cluster has n-1 workers).
func WithPEsPerCluster(n int) Option { return func(o *core.Options) { o.Arch.PEsPerCluster = n } }

// WithSharedMemoryWords sets each cluster's shared-memory capacity.
func WithSharedMemoryWords(w int64) Option {
	return func(o *core.Options) { o.Arch.SharedMemoryWords = w }
}

// WithCostModel sets the simulator's cost parameters: the fixed network
// message latency, the per-word network transfer cost, the per-word
// shared-memory cost, and the kernel PE's message decode cost.
func WithCostModel(netLatency, netCyclesPerWord, memCyclesPerWord, kernelDecodeCycles int64) Option {
	return func(o *core.Options) {
		o.Arch.NetLatency = netLatency
		o.Arch.NetCyclesPerWord = netCyclesPerWord
		o.Arch.MemCyclesPerWord = memCyclesPerWord
		o.Arch.KernelDecodeCycles = kernelDecodeCycles
	}
}

// WithConfig replaces the whole hardware configuration; later options
// adjust it further.
func WithConfig(cfg Config) Option { return func(o *core.Options) { o.Arch = cfg } }

// WithWorkers bounds the job scheduler: at most n asynchronous jobs
// execute at once (0, the default, selects GOMAXPROCS).  A worker
// goroutine runs only while a job can.
func WithWorkers(n int) Option { return func(o *core.Options) { o.Workers = n } }

// WithStore selects the storage backend the system's model database and
// job journal persist through.  The default is the in-memory backend;
// WithStore(StoreConfig{Backend: StoreFile, Path: "fem2.db"}) makes
// models and job records survive a restart — on
// start the store is replayed, the database recovered, and jobs that
// were in flight at a crash deterministically failed.
func WithStore(sc StoreConfig) Option { return func(o *core.Options) { o.Store = sc } }

// ClusterOpts configures lease-based multi-daemon failover: N daemons
// over one shared store, one leaseholder serving writes, the rest
// serving reads and redirecting.  See core.ClusterOpts, internal/cluster
// and docs/cluster.md.
type ClusterOpts = core.ClusterOpts

// WithCluster makes New build the system as one member of a
// multi-daemon cluster sharing the configured store.  Requires the
// file store backend (the store file is the coordination medium).
func WithCluster(co ClusterOpts) Option { return func(o *core.Options) { o.Cluster = &co } }

// New builds the full four-layer stack over the default configuration
// adjusted by the given options.
func New(opts ...Option) (*System, error) {
	o := core.Options{Arch: DefaultConfig()}
	for _, f := range opts {
		f(&o)
	}
	return core.Open(o)
}

// Session is one interactive workstation user: a workspace, the shared
// database, and the command interpreter.
type Session = auvm.Session

// Command is one typed AUVM request; Session.Do interprets it.  Build
// commands as struct literals or Parse them from command lines.
type Command = command.Command

// Result is one typed AUVM reply; its String rendering is the REPL
// display line.
type Result = command.Result

// Parse lexes and parses one command line into its typed Command.  Blank
// lines and # comments parse to (nil, nil); syntax errors wrap ErrUsage.
func Parse(line string) (Command, error) { return command.Parse(line) }

// The command AST, one struct per verb of the workstation language.
type (
	// HelpCommand requests the command-language summary.
	HelpCommand = command.Help
	// PingCommand is the round-trip health check; it answers "pong".
	PingCommand = command.Ping
	// VersionCommand reports the software release and wire protocol
	// revision.
	VersionCommand = command.Version
	// QuitCommand ends a session (Do answers with auvm.ErrQuit).
	QuitCommand = command.Quit
	// Define creates an empty structure model in the workspace.
	Define = command.Define
	// SetMaterial sets the session's current material.
	SetMaterial = command.SetMaterial
	// GenerateGrid generates a rectangular plane-stress grid.
	GenerateGrid = command.GenerateGrid
	// GenerateTruss generates a triangulated cantilever truss.
	GenerateTruss = command.GenerateTruss
	// GenerateBar generates a uniaxial bar chain.
	GenerateBar = command.GenerateBar
	// AddNode appends a node to a model.
	AddNode = command.AddNode
	// AddBar appends a bar element to a model.
	AddBar = command.AddBar
	// AddCST appends a constant-strain triangle to a model.
	AddCST = command.AddCST
	// FixNode fixes both dofs of a node.
	FixNode = command.FixNode
	// FixDOF fixes a single dof.
	FixDOF = command.FixDOF
	// DefineLoadSet creates an empty named load set on a model.
	DefineLoadSet = command.DefineLoadSet
	// AddLoad appends one nodal load to a load set.
	AddLoad = command.AddLoad
	// EndLoad spreads a force over a generated grid's right edge.
	EndLoad = command.EndLoad
	// SolveCommand solves a model/load-set pair for displacements.
	SolveCommand = command.Solve
	// StressesCommand recovers element stresses from the last solution.
	StressesCommand = command.Stresses
	// Display summarises a model, its displacements, or its stresses.
	Display = command.Display
	// StoreCommand files a workspace model in the shared database.
	StoreCommand = command.Store
	// RetrieveCommand copies a database model into the workspace.
	RetrieveCommand = command.Retrieve
	// DeleteCommand removes a model from the shared database.
	DeleteCommand = command.Delete
	// ListCommand enumerates the database or the workspace.
	ListCommand = command.List
	// SnapshotCommand saves the session's whole workspace to a file.
	SnapshotCommand = command.Snapshot
	// RestoreCommand loads a snapshot file into the workspace.
	RestoreCommand = command.Restore
	// SubmitCommand runs another command as an asynchronous job.
	SubmitCommand = command.Submit
	// StatusCommand reports one job's state and accounting.
	StatusCommand = command.Status
	// WaitCommand blocks until a job finishes and yields its result.
	WaitCommand = command.Wait
	// CancelCommand stops a queued or running job.
	CancelCommand = command.Cancel
	// JobsCommand enumerates the scheduler's jobs.
	JobsCommand = command.Jobs
	// StatsCommand reports the serving system's live metrics snapshot —
	// read-only, answerable even draining or degraded, like ping.
	StatsCommand = command.Stats
)

// SolveMethod names a solver backend in a SolveCommand; the zero value
// selects the Cholesky baseline.
type SolveMethod = command.Method

// The solve methods by name.
const (
	SolveCholesky    = command.MethodCholesky
	SolveCholeskyRCM = command.MethodCholeskyRCM
	SolveCholeskyEnv = command.MethodCholeskyEnv
	SolveCG          = command.MethodCG
	SolveSOR         = command.MethodSOR
	SolveJacobi      = command.MethodJacobi
)

// SolvePrecond names a preconditioner in a SolveCommand; the zero value
// applies none.
type SolvePrecond = command.Precond

// DisplayKind selects what a Display command shows.
type DisplayKind = command.DisplayKind

// The display targets.
const (
	DisplayModel         = command.DisplayModel
	DisplayDisplacements = command.DisplayDisplacements
	DisplayStresses      = command.DisplayStresses
)

// ListKind selects what a ListCommand enumerates.
type ListKind = command.ListKind

// The list targets.
const (
	ListDB        = command.ListDB
	ListWorkspace = command.ListWorkspace
)

// The typed results, one per verb family; each String() renders the
// exact REPL display line.
type (
	// HelpResult is the command-language summary.
	HelpResult = command.HelpResult
	// PingResult renders "pong".
	PingResult = command.PingResult
	// VersionResult reports server name, release, and protocol revision.
	VersionResult = command.VersionResult
	// QuitResult accompanies ErrQuit on a clean shutdown.
	QuitResult = command.QuitResult
	// DefineResult reports a newly defined model.
	DefineResult = command.DefineResult
	// MaterialResult echoes the material now in effect.
	MaterialResult = command.MaterialResult
	// GenerateResult counts a generated mesh.
	GenerateResult = command.GenerateResult
	// NodeResult reports a new node's index and coordinates.
	NodeResult = command.NodeResult
	// ElementResult reports a new element's connectivity.
	ElementResult = command.ElementResult
	// FixResult reports a fixed node or dof.
	FixResult = command.FixResult
	// LoadSetResult reports a created load set.
	LoadSetResult = command.LoadSetResult
	// LoadResult reports an appended nodal load.
	LoadResult = command.LoadResult
	// EndLoadResult reports an applied grid edge load.
	EndLoadResult = command.EndLoadResult
	// SolveResult carries a solve's statistics and headline numbers.
	SolveResult = command.SolveResult
	// StressesResult carries the worst element stress.
	StressesResult = command.StressesResult
	// ModelInfoResult summarises a model's mesh.
	ModelInfoResult = command.ModelInfoResult
	// DisplacementsResult carries the displacement summary.
	DisplacementsResult = command.DisplacementsResult
	// StressSummaryResult summarises recovered stresses.
	StressSummaryResult = command.StressSummaryResult
	// StoreResult reports a completed database store.
	StoreResult = command.StoreResult
	// RetrieveResult reports a completed database retrieve.
	RetrieveResult = command.RetrieveResult
	// DeleteResult reports a completed database delete.
	DeleteResult = command.DeleteResult
	// ListResult enumerates a store's model names.
	ListResult = command.ListResult
	// SnapshotResult reports a written workspace snapshot.
	SnapshotResult = command.SnapshotResult
	// RestoreResult reports a restored workspace snapshot.
	RestoreResult = command.RestoreResult
	// SubmitResult reports a newly submitted job's id and state.
	SubmitResult = command.SubmitResult
	// JobStatusResult reports one job's state and accounting.
	JobStatusResult = command.JobStatusResult
	// JobsResult enumerates jobs; JobRow is one of its lines.
	JobsResult = command.JobsResult
	// JobRow is one line of a JobsResult.
	JobRow = command.JobRow
	// CancelResult reports a cancel attempt's outcome.
	CancelResult = command.CancelResult
	// StatsResult carries a metrics snapshot; StatEntry is one counter
	// or gauge, StatHistogram one latency histogram of StatBuckets.
	StatsResult   = command.StatsResult
	StatEntry     = command.StatEntry
	StatBucket    = command.StatBucket
	StatHistogram = command.StatHistogram
)

// The asynchronous job service — the concurrent multi-tenant front end.
// System.Jobs owns the scheduler; Session.SubmitAsync and the
// submit/status/wait/cancel/jobs verbs drive it.

// JobID identifies one submitted job.
type JobID = job.JobID

// JobState is a job's lifecycle state.
type JobState = job.State

// The job lifecycle states.
const (
	// JobQueued means the job is waiting for a worker or its model's
	// lock.
	JobQueued = job.Queued
	// JobRunning means a worker is executing the job.
	JobRunning = job.Running
	// JobDone means the job finished; its result is stored.
	JobDone = job.Done
	// JobFailed means the job's command returned an error.
	JobFailed = job.Failed
	// JobCancelled means the job was stopped before or during its run.
	JobCancelled = job.Cancelled
)

// JobStateName is a job state as the command language speaks it: the
// string form JobsCommand.State filters on and the job results render.
// JobState (the scheduler enum) and JobStateName correspond via
// JobState.String().
type JobStateName = command.JobState

// The job state names, for JobsCommand filters:
// fem2.JobsCommand{State: fem2.JobRunningName}.
const (
	JobQueuedName    = command.JobQueued
	JobRunningName   = command.JobRunning
	JobDoneName      = command.JobDone
	JobFailedName    = command.JobFailed
	JobCancelledName = command.JobCancelled
)

// JobFilter selects jobs for System.Jobs.List; zero fields match
// everything.
type JobFilter = job.Filter

// ErrJobQuota is returned by Submit when a tenant is at its in-flight
// job bound.
var ErrJobQuota = job.ErrQuota

// The durable storage layer: a pluggable KV store under the model
// database and the job journal — see docs/storage.md for the key
// schema, encodings, and recovery semantics.

// StoreConfig selects and parameterises a storage backend, in the
// spirit of a database DBConfiguration: Backend names it, Path locates
// a file-backed one.
type StoreConfig = store.Config

// The storage backend names.
const (
	// StoreMem is the in-memory backend — fast, empty at every start.
	StoreMem = store.BackendMem
	// StoreFile is the file-backed backend: a single append-only log
	// file with CRC-framed records, replayed and compacted on open.
	StoreFile = store.BackendFile
)

// ErrStoreDegraded reports a write refused because the store guard has
// degraded the system to read-only after persistent write failures.
// Remote clients see it through the degraded wire code; reads keep
// serving, and the guard's background probe re-arms writes when the
// backend recovers.  See docs/robustness.md.
var ErrStoreDegraded = store.ErrDegraded

// GuardOpts tunes the store degradation guard New installs over the
// backend: the recovery probe interval and an optional health-transition
// hook.  The guard trips at store.GuardThreshold consecutive write
// failures.  The zero value selects the defaults.
type GuardOpts = store.GuardOpts

// WithStoreGuard adjusts the degradation guard's thresholds and hooks.
func WithStoreGuard(g GuardOpts) Option { return func(o *core.Options) { o.Guard = g } }

// The network layer: fem2d serves a System over TCP (length-prefixed
// JSON frames carrying the typed command language — docs/protocol.md),
// and Client speaks the same typed Do surface back, rendering results
// byte-identically to local execution.

// Release is the FEM-2 software release the version verb reports.
const Release = command.Release

// ProtocolVersion is the wire protocol revision; client and server
// must agree exactly.
const ProtocolVersion = command.ProtocolVersion

// Server serves one System over TCP; see internal/server.
type Server = server.Server

// ServerConfig parameterises a Server: per-connection job quota,
// request timeout and logging.
type ServerConfig = server.Config

// NewServer builds a network front end over a system, installing the
// per-tenant quota on the system's scheduler.
func NewServer(sys *System, cfg ServerConfig) *Server { return server.New(sys, cfg) }

// ErrServerClosed is returned by Server.Serve after Shutdown.
var ErrServerClosed = server.ErrServerClosed

// Client is one connection to a fem2d daemon: the typed Do surface
// over the wire.  A call reads its own reply off the socket when it is
// the only one in flight; concurrent calls hand each other's replies
// over.  Client.Events starts a read loop on first use, on this and every
// later connection, so that its channel closes when the server hangs up
// even while no call is in flight.  A connection the client cannot read
// without waiting (one from a Dialer that is not a syscall.Conn, or any
// on a non-unix build) runs a read loop from the start.
type Client = client.Client

// Dial connects to a fem2d daemon and completes the handshake as user.
func Dial(addr, user string) (*Client, error) { return client.Dial(addr, user) }

// ClientOptions tunes a client's resilience: reconnect budget,
// exponential backoff with seeded jitter, per-request deadlines, and a
// dialer hook; Notify subscribes to job notifications (Client.Events),
// and runs a read loop on every connection to deliver them while no call
// is in flight.  The zero value is Dial's behaviour.
type ClientOptions = client.Options

// DialWithOptions connects with explicit resilience settings: with a
// positive MaxRetries the client redials dead connections and replays
// idempotent global verbs (ping, version, status, jobs, wait).
func DialWithOptions(addr, user string, o ClientOptions) (*Client, error) {
	return client.DialWithOptions(addr, user, o)
}

// ErrClientClosed is returned by Client.Do once the connection is gone
// for good.
var ErrClientClosed = client.ErrClientClosed

// ErrRetriesExhausted classifies a *RetryError: the client burned its
// whole reconnect budget without a successful round trip.
var ErrRetriesExhausted = client.ErrRetriesExhausted

// RetryError reports the request a client gave up on: total attempts
// plus the last underlying failure.
type RetryError = client.RetryError

// JobEvent is one server-pushed job lifecycle notification.
type JobEvent = wire.JobEvent

// The observability layer: every System carries a registry of live
// counters, gauges, and latency histograms (System.Obs), updated
// lock-free by the instrumented layers — the simulated machine's
// per-level counts (LevelReport) included.  System.StatsSnapshot and the
// stats verb read it point-in-time; a MetricsEmitter streams it as one
// JSON line per interval — the fem2/fem2d -metrics flag.  See
// docs/observability.md for the metric catalog and line format.

// ObsRegistry is a live metrics registry; System.Obs is the system's.
type ObsRegistry = obs.Registry

// NewObsRegistry builds an empty standalone registry — for clients
// that want reconnect/retry counters without a local System.
func NewObsRegistry() *ObsRegistry { return obs.New() }

// MetricsEmitter writes one JSON metrics line per tick; Start begins
// ticking, Stop flushes out.
type MetricsEmitter = obs.Emitter

// MetricsEmitterOpts parameterises a MetricsEmitter: the tick interval
// and the destination writer.
type MetricsEmitterOpts = obs.EmitterOpts

// NewMetricsEmitter builds an emitter over a registry.
func NewMetricsEmitter(reg *ObsRegistry, o MetricsEmitterOpts) *MetricsEmitter {
	return obs.NewEmitter(reg, o)
}

// MarshalResult and UnmarshalResult are the typed result wire codec:
// strict in both directions, round-tripping to identical structs.
func MarshalResult(r Result) ([]byte, error)      { return command.MarshalResult(r) }
func UnmarshalResult(data []byte) (Result, error) { return command.UnmarshalResult(data) }

// The shared error taxonomy.  Missing objects, malformed or ineligible
// requests, and cancelled contexts wrap these sentinels across auvm,
// fem, and core, so errors.Is classifies them uniformly (system-side
// failures — a session with no parallel machine attached, a solver
// breakdown — deliberately match none of them).
var (
	// ErrNotFound reports a named object that does not exist where the
	// operation looked for it.
	ErrNotFound = errs.ErrNotFound
	// ErrUsage reports a malformed request (unknown verb, bad
	// arguments, unknown option).
	ErrUsage = errs.ErrUsage
	// ErrCancelled reports a context cancelled or past its deadline
	// before the operation completed.
	ErrCancelled = errs.ErrCancelled
	// ErrQuit is the quit verb's sentinel; a REPL treats it as a clean
	// shutdown.
	ErrQuit = auvm.ErrQuit
	// ErrNoConvergence reports an iterative backend that exhausted its
	// budget.
	ErrNoConvergence = linalg.ErrNoConvergence
)

// LayerSpec is the design-time description of one virtual machine layer.
type LayerSpec = core.LayerSpec

// FEM2Layers returns the paper's four layer specifications, top first.
func FEM2Layers() []*LayerSpec { return core.FEM2Layers() }

// DesignIterator runs the design method's evaluate-adjust loop over a
// hardware design space.
type DesignIterator = core.DesignIterator

// Model is a finite element structure/substructure model.
type Model = fem.Model

// LoadSet is a named set of applied nodal loads.
type LoadSet = fem.LoadSet

// Material carries element material and section properties.
type Material = fem.Material

// Solution is a solved load case.
type Solution = fem.Solution

// Steel returns the default structural steel material.
func Steel() Material { return fem.Steel() }

// RectGridOpts parameterises the plane-stress grid generator.
type RectGridOpts = fem.RectGridOpts

// RectGrid generates a rectangular plane-stress model of CST elements.
func RectGrid(name string, o RectGridOpts) (*Model, error) { return fem.RectGrid(name, o) }

// CantileverTruss generates a triangulated cantilever truss of bar
// elements.
func CantileverTruss(name string, bays int, bayLen, height float64, mat Material) (*Model, error) {
	return fem.CantileverTruss(name, bays, bayLen, height, mat)
}

// SolveOpts selects and tunes the solution strategy for Solve: a solver
// Backend by name, an optional Precond for iterative backends,
// a Parallel worker count or Substructured band count, and the iterative
// Tol/MaxIter/Omega knobs.
type SolveOpts = fem.SolveOpts

// Solve assembles and solves a model/load set as SolveOpts directs —
// sequential, NAVM-distributed, or substructured — by a method of the
// solver method table.  The zero SolveOpts runs the banded Cholesky
// baseline.  All paths honour ctx: a cancelled solve returns an error
// wrapping ErrCancelled.
func Solve(ctx context.Context, m *Model, ls *LoadSet, opts SolveOpts) (*Solution, error) {
	return fem.Solve(ctx, m, ls, opts)
}

// Stresses recovers element stresses from a solution.
func Stresses(m *Model, sol *Solution) ([][]float64, error) { return fem.Stresses(m, sol) }

// The plan-once layer.  Solve keeps three pieces of state per model —
// on the Model, its one owner — and redoes none of them on a re-solve
// of an unchanged model; since nothing tells a Model it was edited, it
// re-checks each on every solve.
//
// Assemble-once: the first solve builds the model's symbolic assembly
// (sparsity pattern + scatter maps) and keeps it on the Model with the
// assembled matrix.  Later solves check that it still matches the
// topology — dof count, constraints, element count, every element's
// order and connectivity — and rebuild it when the topology changed;
// then compare every element's stiffness inputs (node coordinates and
// Material for Bar and CST) bit for bit with the record the matrix was
// assembled from, and run the allocation-free numeric scatter unless all
// are identical.  The element set is closed (Bar and CST), so every
// element offers the record and none is re-evaluated for lack of one.
// Inside a session this state follows the model name: generate,
// retrieve and restore hand the replaced model's assembly and factor
// cache, as one unit, to the new object, which runs the same checks
// against itself before trusting any of it.  Nothing else moves a
// factor between Model objects: same-name models of different sessions
// keep a plan each, and two sessions that retrieve one stored model
// factor it once each.
//
// Factor-once: direct solves through Solve, the REPL's solve verb, and
// the job service all go through the Model's own FactorCache:
// the first solve of a topology plans and factors, later solves of the
// unchanged model cost one triangular solve (Solution.Refactored /
// SolveResult.Refactored report which happened), and a model whose
// values changed is re-factored in place with no allocation.  The
// cache never trades correctness for reuse: a factor is reused only
// when the solve's walk over the model found every stiffness input bit
// for bit as the assembly that was factored read it (the recording
// pass's token proves it), and cached solutions are bit-identical to
// cold solves.
//
// Allocate-once: the load vector, reduced solution and residual of a
// solve are scratch of the retained assembly, so Solve allocates only the
// Solution it returns.  Inside a session even that is recycled: each
// model's workspace entry keeps the solution and stresses its latest ones
// replaced, and the next solve or stress recovery of the model writes
// over them, so a warm re-solve allocates nothing in proportion to the
// model.  The recycling stays behind the session: Session.WS's Solution
// and Stresses return copies, which are the caller's to keep.

// The solver method table's backend names, usable as SolveOpts.Backend, as a
// SolveCommand.Method, and in the REPL's `solve ... method <name>`.
const (
	// BackendCholesky is sequential banded Cholesky — the baseline.
	BackendCholesky = linalg.BackendCholesky
	// BackendCholeskyRCM is banded Cholesky after RCM renumbering.
	BackendCholeskyRCM = linalg.BackendCholeskyRCM
	// BackendCholeskyEnv is envelope (skyline) Cholesky after RCM: each
	// row pays its own profile instead of the worst row's bandwidth.
	BackendCholeskyEnv = linalg.BackendCholeskyEnv
	// BackendCG is (optionally preconditioned) conjugate gradients.
	BackendCG = linalg.BackendCG
	// BackendJacobi is Jacobi iteration.
	BackendJacobi = linalg.BackendJacobi
	// BackendSOR is successive over-relaxation.
	BackendSOR = linalg.BackendSOR
)

// The preconditioner registry names, usable as SolveOpts.Precond and in
// the REPL's `solve ... precond <name>`.
const (
	// PrecondJacobi is diagonal scaling.
	PrecondJacobi = linalg.PrecondJacobi
	// PrecondSSOR is the symmetric SOR preconditioner.
	PrecondSSOR = linalg.PrecondSSOR
)

// DistSystem is a row-partitioned linear system with its halo
// communication plan.
type DistSystem = navm.DistSystem

// Partition splits a sparse system into P contiguous row blocks.
func Partition(a *linalg.CSR, b linalg.Vector, p int) (*DistSystem, error) {
	return navm.Partition(a, b, p)
}

// Table is one experiment's printable result.
type Table = exp.Table

// RunAllExperiments regenerates every experiment table (E1-E16 plus the
// design-method iteration) with default parameters.
func RunAllExperiments() ([]*Table, error) { return exp.RunAll() }

// Grammar is a formal H-graph grammar defining a class of data objects.
type Grammar = hgraph.Grammar

// AllLevelGrammars returns the formal grammars of every specified VM
// level.
func AllLevelGrammars() map[string]*Grammar { return hgraph.AllLevelGrammars() }

// Level identifies a virtual machine layer in the per-level counters.
type Level = obs.Level

// The four layers, top-down.
const (
	LevelAUVM = obs.LevelAUVM
	LevelNAVM = obs.LevelNAVM
	LevelSPVM = obs.LevelSPVM
	LevelARCH = obs.LevelARCH
)

// LevelReport renders the per-level requirements table from a snapshot's
// auvm.*, navm.*, spvm.* and arch.* counters — levels as rows, every
// counter non-zero at some level as a column.  fem2 -report prints it
// from System.StatsSnapshot after the machine report.
func LevelReport(s obs.Snapshot) string { return obs.LevelReport(s) }
