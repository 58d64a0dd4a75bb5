// Package core implements the FEM-2 design method itself — the paper's
// primary contribution.  The method has three distinguishing aspects:
//
//  1. a top-down rather than bottom-up design process,
//  2. the design considers the entire system structure in terms of layers
//     of virtual machines, and
//  3. each layer of virtual machine is defined formally during the design
//     process.
//
// Accordingly, this package provides: LayerSpec, the formal description of
// one virtual machine layer (its data objects, operations, sequence
// control, data control, and storage management, with H-graph grammars as
// the formal definitions); System, the complete four-layer stack wired
// together; and DesignIterator, the method's evaluate-adjust loop that
// simulates a candidate configuration against a workload and iterates the
// hardware parameters until the requirements derived from the upper
// layers are met ("the entire design process may be iterated ... until
// the proper match of hardware and software organizations is found").
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/auvm"
	"repro/internal/cluster"
	"repro/internal/errs"
	"repro/internal/hgraph"
	"repro/internal/job"
	"repro/internal/navm"
	"repro/internal/obs"
	"repro/internal/store"
)

// LayerSpec is the design-time description of one virtual machine layer,
// structured exactly as the paper presents each layer: five component
// categories plus the formal H-graph grammars defining its data objects.
type LayerSpec struct {
	// Level names the layer.
	Level obs.Level
	// Audience is the class of user the layer serves.
	Audience string
	// DataObjects, Operations, SequenceControl, DataControl,
	// StorageManagement are the five virtual machine component
	// categories from the paper.
	DataObjects       []Row
	Operations        []Row
	SequenceControl   []Row
	DataControl       []Row
	StorageManagement []Row
	// Grammars names the formal H-graph grammars (keys of
	// hgraph.AllLevelGrammars) that define this layer's data objects.
	Grammars []string
}

// Row is one entry of a layer specification: the paper's text and the
// code that reproduces it.
type Row struct {
	Text string
	// Backing names that code by its package under internal/, its
	// receiver type for a method, and its identifier
	// ("spvm.MsgInitiate", "navm.Runtime.Solve"), or is PaperOnly.  The
	// module's surface test resolves every name and requires a non-test
	// reference to it from outside its package.
	Backing string
}

// PaperOnly is the backing of a row the paper specifies and no code
// reproduces.
const PaperOnly = "paper-only"

// paper returns a row the paper specifies and no code reproduces.
func paper(text string) Row { return Row{text, PaperOnly} }

// Category is one of the paper's five component categories of a layer.
type Category struct {
	Name string
	Rows []Row
}

// Categories returns the layer's five component categories in the paper's
// order.
func (l *LayerSpec) Categories() []Category {
	return []Category{
		{"Data objects", l.DataObjects},
		{"Operations", l.Operations},
		{"Sequence control", l.SequenceControl},
		{"Data control", l.DataControl},
		{"Storage management", l.StorageManagement},
	}
}

// Validate checks the layer spec is complete and its formal grammars
// exist and are well-formed.  Categories are checked in the paper's
// order, so a spec missing several always reports the same one.
func (l *LayerSpec) Validate() error {
	for _, c := range l.Categories() {
		if len(c.Rows) == 0 {
			return fmt.Errorf("core: layer %s has no %s", l.Level, strings.ToLower(c.Name))
		}
	}
	all := hgraph.AllLevelGrammars()
	for _, g := range l.Grammars {
		gr, ok := all[g]
		if !ok {
			return fmt.Errorf("core: layer %s names unknown grammar %q", l.Level, g)
		}
		if errs := gr.WellFormed(); len(errs) > 0 {
			return fmt.Errorf("core: layer %s grammar %q ill-formed: %v", l.Level, g, errs[0])
		}
	}
	return nil
}

// String renders the spec in the paper's outline style, marking the rows
// no code reproduces.
func (l *LayerSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", l.Level, l.Audience)
	for _, c := range l.Categories() {
		fmt.Fprintf(&b, "  %s:\n", c.Name)
		for _, r := range c.Rows {
			if r.Backing == PaperOnly {
				fmt.Fprintf(&b, "    %s (specified by the paper, not reproduced)\n", r.Text)
			} else {
				fmt.Fprintf(&b, "    %s\n", r.Text)
			}
		}
	}
	if len(l.Grammars) > 0 {
		fmt.Fprintf(&b, "  Formal grammars: %s\n", strings.Join(l.Grammars, ", "))
	}
	return b.String()
}

// FEM2Layers returns the four layer specifications of the FEM-2 design,
// transcribed from the paper, top layer first.
func FEM2Layers() []*LayerSpec {
	return []*LayerSpec{
		{
			Level:    obs.LevelAUVM,
			Audience: "structural engineer at an interactive workstation",
			DataObjects: []Row{
				{"structure/substructure model", "fem.Model"},
				{"grid description", "fem.RectGridOpts"},
				{"node/element description", "fem.Element"},
				{"load set", "fem.LoadSet"},
				{"displacements of nodes", "fem.Solution"},
				{"stresses on elements", "fem.VonMises"},
			},
			Operations: []Row{
				{"define structure model", "command.Define"},
				{"generate grid", "fem.RectGrid"},
				{"define elements", "fem.Model.AddElement"},
				{"solve structure model/load set for displacements", "fem.SolveInto"},
				{"calculate stresses", "fem.StressesInto"},
				{"data base operations (store/retrieve)", "command.Store"},
			},
			SequenceControl: []Row{{"direct interpretation of user commands", "auvm.Session.Do"}},
			DataControl: []Row{
				{"workspace (user local data)", "auvm.Session"},
				{"data base (long-term storage; shared data)", "auvm.Database"},
			},
			StorageManagement: []Row{
				{"dynamic storage allocation for models, results, workspaces", "auvm.NewSession"},
				{"data movement between data base and workspace", "command.Retrieve"},
			},
			Grammars: []string{"auvm-model"},
		},
		{
			Level:    obs.LevelNAVM,
			Audience: "numerical analyst programming the parallel linear algebra",
			DataObjects: []Row{
				{"windows on arrays: row descriptors", "navm.RowWindow"},
				paper("windows on arrays: column, block descriptors"),
			},
			Operations: []Row{
				{"tasks (programmer-defined parallel procedures)", "navm.Runtime.RegisterTaskType"},
				{"window operations: create window, access data visible in a window", "navm.RowWindow"},
				paper("window operations: assign data visible in a window"),
				paper("broadcast data to a set of tasks"),
				{"linear algebra operations: inner product, vector operations", "navm.Runtime.Solve"},
			},
			SequenceControl: []Row{
				paper("forall loops"),
				paper("pardo ... end"),
				{"task control: initiate, terminate", "navm.TaskCtx.Initiate"},
				paper("task control: pause, resume"),
				paper("remote procedure call located by window"),
			},
			DataControl: []Row{
				{"all data owned by a single task", "navm.TaskCtx.NewArray"},
				{"data accessible non-locally only via windows", "navm.Window.Read"},
				paper("windows transmitted as parameters, partitioned, stored"),
				{"tasks communicate through windows", "navm.Window.Read"},
			},
			StorageManagement: []Row{
				{"dynamic creation of data objects by a task", "navm.TaskCtx.NewArray"},
				paper("data lifetime = lifetime of owner task"),
				{"dynamic creation of multiple task replications", "navm.TaskCtx.Initiate"},
				paper("local data retained over pause/resume"),
			},
			Grammars: []string{"navm-window"},
		},
		{
			Level:    obs.LevelSPVM,
			Audience: "system programmer implementing the NAVM",
			DataObjects: []Row{
				{"code blocks/constants blocks", "spvm.MsgLoadCode"},
				{"task/procedure activation records", "spvm.Kernel.Start"},
				{"window descriptors", "spvm.WindowDesc"},
				{"storage representations", "spvm.Message.Words"},
				{"task message: initiate K replications of a task of type T", "spvm.MsgInitiate"},
				{"task message: terminate and notify parent", "spvm.MsgTerminate"},
				{"task message: load code/constants", "spvm.MsgLoadCode"},
				paper("task messages: pause, resume, remote call, remote return"),
			},
			Operations: []Row{
				{"sequential operations", "navm.TaskCtx.Charge"},
				{"library linear algebra routines", "linalg.Distributed"},
				{"format and send message", "spvm.Message"},
				{"decode and execute message", "spvm.Kernel.Handle"},
			},
			SequenceControl: []Row{paper("usual sequential control structures")},
			DataControl:     []Row{paper("usual sequential language structures")},
			StorageManagement: []Row{
				{"general heap with variable size blocks", "spvm.Heap.HighWater"},
			},
			Grammars: []string{"spvm-message", "spvm-activation"},
		},
		{
			Level:    obs.LevelARCH,
			Audience: "hardware organisation",
			DataObjects: []Row{
				{"clusters of processing elements around a shared memory", "arch.Machine.Clusters"},
				{"common communication network", "arch.Machine.Network"},
				{"cluster input queues", "arch.Machine.Send"},
			},
			Operations: []Row{
				{"kernel PE fields incoming messages and assigns available PEs", "arch.Machine.Send"},
				{"network transfer", "arch.Machine.RemoteFetch"},
				{"shared memory access", "arch.Machine.MemoryTouch"},
			},
			SequenceControl: []Row{{"message-driven dispatch", "arch.Machine.Send"}},
			DataControl:     []Row{{"messages processed by any available PE", "arch.Machine.PlaceWorker"}},
			StorageManagement: []Row{
				{"shared memory dynamic allocation", "arch.SharedMemory.Alloc"},
				{"reconfiguration around faults", "arch.Machine.FailPE"},
			},
		},
	}
}

// System is a complete FEM-2 instance: the simulated hardware, the
// per-cluster SPVM kernels, the NAVM runtime, the shared AUVM database,
// the job scheduler, and any number of user sessions — all counting into
// one registry so experiments see every level at once.
//
// System is a concurrent multi-tenant front end: the session registry is
// mutex-guarded, every session is wired to the shared job scheduler, and
// any number of goroutines may create sessions and submit work at once.
type System struct {
	Machine  *arch.Machine
	Runtime  *navm.Runtime
	Database *auvm.Database
	// Jobs is the system's asynchronous job service: a bounded worker
	// pool with per-model serialization, shared by every session.
	Jobs *job.Scheduler
	// Store is the durable KV layer under the database and the job
	// journal: the configured backend under the guard, and under the
	// epoch fence when clustered.  With the file backend, models and job
	// records survive a restart.
	Store store.Store
	// Health is the degradation guard on the backend: when backend
	// writes keep failing it turns the store read-only instead of letting
	// errors cascade, and its background probe re-arms writes once the
	// backend recovers.  It also times every store read and write.  See
	// store.Guard.
	Health *store.Guard
	// Cluster, when non-nil, is the lease coordinator of a multi-daemon
	// deployment (Options.Cluster): it decides whether this daemon
	// may serve writes, and the server redirects mutating verbs to its
	// LeaderAddr otherwise.  Nil on a standalone system.
	Cluster *cluster.Coordinator
	// Obs is the system's live-metrics registry: every layer routes its
	// counters, gauges, and latency histograms through it — the
	// simulated machine's per-level counts (obs.LevelReport) among them —
	// the stats verb snapshots it, and the -metrics emitter ticks from it.
	Obs *obs.Registry

	storeCfg store.Config
	// file is the file backend's own handle (nil on the memory backend):
	// the one layer of the store stack with Refresh and Seal.
	file     *store.FileStore
	mu       sync.RWMutex
	sessions map[string]*auvm.Session
}

// Options is everything Open configures.
type Options struct {
	// Arch is the simulated hardware configuration.
	Arch arch.Config
	// Workers bounds the asynchronous jobs the scheduler executes at once
	// (<= 0 selects GOMAXPROCS).  A worker goroutine runs only while a job
	// can.
	Workers int
	// Store selects the storage backend; the zero value is the in-memory
	// one.  With the file backend a restarted system serves every
	// previously-stored model and the complete terminal job history, with
	// jobs that were in flight at the crash deterministically failed.
	Store store.Config
	// Guard is the degradation policy: the guard's probe cadence and
	// state-change hook (the daemon logs from it).
	Guard store.GuardOpts
	// Cluster, when non-nil, builds the system as one member of a
	// multi-daemon cluster sharing Store.
	Cluster *ClusterOpts
}

// ClusterOpts configures lease-based multi-daemon coordination (see
// internal/cluster and docs/cluster.md).
type ClusterOpts struct {
	// Owner names this daemon in the lease record (diagnostics only).
	Owner string
	// Advertise is the address written into the lease — where followers
	// redirect clients' mutating commands.  Required.
	Advertise string
	// TTL is the lease lifetime (zero selects cluster.DefaultTTL); the
	// leader renews, and a follower polls, every TTL/3.
	TTL time.Duration
	// OnPromote, when non-nil, runs after the system finished takeover
	// recovery (store sealed, journal replayed); the daemon logs the
	// promotion from it.
	OnPromote func(epoch int64)
	// OnDemote, when non-nil, runs when this daemon loses the lease.
	OnDemote func(reason string)
	// Logf logs coordination transitions; nil discards.
	Logf func(format string, args ...any)
}

// Open builds the full stack: the store is opened (replaying and
// compacting a file-backed log as needed), brought to the current format,
// the model database recovered from it, and the job journal attached.
//
// The store layering, bottom up: backend → degradation guard → [epoch
// fence].  There is no read cache: nothing re-reads the journal the
// service writes, and each backend answers a Get from memory or one
// pread.  On the memory backend, which dies with the process, the job
// journal keeps only the retention window (job.Scheduler.ForgetEvicted):
// an evicted id is not found, where the file backend answers it from
// the journal, and a job's one write is its terminal record, where the
// file backend also writes the queued record a restart would find.
//
// A clustered system is the same stack with two differences.  The
// fence goes on the guard, and the coordinator's own lease traffic goes
// through the guard, below the fence, because lease writes are how
// epochs change.  And the journal is attached without a recovery scan:
// recovery rewrites records, which only the leader may do, so it runs
// in the promotion sequence instead.  The coordinator is started before
// returning — a daemon pointed at an unowned store is leader when Open
// returns.
func Open(o Options) (*System, error) {
	co := o.Cluster
	if co != nil {
		if co.Advertise == "" {
			return nil, fmt.Errorf("core: cluster mode requires an advertise address")
		}
		if o.Store.Backend == store.BackendFile {
			o.Store.Shared = true // N daemons append to one log; see store.FileOpts
		}
	}
	m, err := arch.New(o.Arch)
	if err != nil {
		return nil, err
	}
	backing, file, err := store.Open(o.Store)
	if err != nil {
		return nil, err
	}
	guard := store.NewGuard(backing, o.Guard)
	s := &System{
		Machine:  m,
		Runtime:  navm.NewRuntime(m),
		Health:   guard,
		Obs:      obs.New(),
		storeCfg: o.Store,
		file:     file,
		sessions: map[string]*auvm.Session{},
	}
	s.Store = guard
	if co != nil {
		var refresh func() error
		if file != nil {
			refresh = file.Refresh
		}
		// The hooks only fire after Start, below, by which point s is
		// fully built.
		s.Cluster = cluster.New(cluster.Config{
			Store:     guard,
			Owner:     co.Owner,
			Advertise: co.Advertise,
			TTL:       co.TTL,
			Refresh:   refresh,
			OnPromote: func(epoch int64) error { return s.promote(epoch, co.OnPromote) },
			OnDemote:  co.OnDemote,
			Obs:       s.Obs,
			Logf:      co.Logf,
		})
		s.Store = cluster.NewFenced(guard, s.Cluster, s.Obs)
	}
	// The format upgrade runs through the guard, below the fence: on a
	// follower the fenced handle refuses the first-ever format write, and
	// the key predates any lease by definition.
	if err := auvm.UpgradeStore(guard); err != nil {
		s.Store.Close()
		return nil, err
	}
	guard.SetObs(s.Obs)
	s.Database = auvm.NewDatabaseOn(s.Store, o.Store.BackendName())
	s.Jobs = job.NewScheduler(o.Workers)
	s.Jobs.SetObs(s.Obs)
	if file == nil {
		s.Jobs.ForgetEvicted()
	}
	if co != nil {
		s.Jobs.SetJournal(s.Store)
		s.Jobs.SetEpochSource(s.Cluster.Epoch)
	} else if _, err := s.Jobs.AttachJournal(s.Store); err != nil {
		s.Jobs.Close()
		s.Store.Close()
		return nil, err
	}
	s.Runtime.AttachInstrumentation(s.Obs)
	// Sessions resolve auvm.ops on their first command; registering it
	// here lists it beside the machine's counters from the start.
	s.Obs.Counter(obs.AUVMOps)
	if co != nil {
		s.Cluster.Start()
	}
	return s, nil
}

// promote is the takeover sequence, run on the coordinator goroutine
// with the lease won but IsLeader still false, so the server keeps
// refusing writes until recovery finished.  Seal truncates the dead
// leader's torn tail and folds in everything it committed, and
// RecoverJournal rebuilds the job history, failing whatever was in
// flight when it died.
func (s *System) promote(epoch int64, hook func(int64)) error {
	if s.file != nil {
		if err := s.file.Seal(); err != nil {
			return fmt.Errorf("sealing store: %w", err)
		}
	}
	if _, err := s.Jobs.RecoverJournal(); err != nil {
		return fmt.Errorf("replaying job journal: %w", err)
	}
	if hook != nil {
		hook(epoch)
	}
	return nil
}

// ClusterRole reports "leader" or "follower" in clustered mode, ""
// on a standalone system.  The wire Welcome envelope carries it.
func (s *System) ClusterRole() string {
	if s.Cluster == nil {
		return ""
	}
	return s.Cluster.Role()
}

// ClusterLeader reports the cluster leader's advertised address as
// this daemon knows it; "" standalone or before any leader was seen.
func (s *System) ClusterLeader() string {
	if s.Cluster == nil {
		return ""
	}
	return s.Cluster.LeaderAddr()
}

// StorageBackend reports the configured storage backend name ("mem",
// "file") — surfaced by the version verb and the wire Welcome
// envelope.
func (s *System) StorageBackend() string { return s.storeCfg.BackendName() }

// Degraded reports whether the store has degraded to read-only mode.
// ping/version surface it, and the server refuses mutating verbs with
// the "degraded" wire code while it holds.
func (s *System) Degraded() bool { return s.Health.Degraded() }

// StatsSnapshot returns a point-in-time copy of the system's live
// metrics — exactly what the stats verb answers.
func (s *System) StatsSnapshot() obs.Snapshot { return s.Obs.Snapshot() }

// Session returns the named user session, creating it on first use —
// FEM-2's multi-user access.  Safe for concurrent use: simultaneous
// calls for one user all receive the same session.
func (s *System) Session(user string) *auvm.Session {
	s.mu.RLock()
	sess, ok := s.sessions[user]
	s.mu.RUnlock()
	if ok {
		return sess
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[user]; ok { // lost the creation race
		return sess
	}
	sess = auvm.NewSession(user, s.Database)
	sess.RT = s.Runtime
	sess.Jobs = s.Jobs
	sess.Health = s.Degraded
	sess.Obs = s.Obs
	s.sessions[user] = sess
	return sess
}

// Users returns the active session names, sorted.
func (s *System) Users() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.sessions))
	for u := range s.sessions {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Sessions returns the active sessions, sorted by user name.
func (s *System) Sessions() []*auvm.Session {
	s.mu.RLock()
	out := make([]*auvm.Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// CloseSession removes a user's session from the registry, cancelling
// the user's queued and running jobs, and reports whether the session
// existed.  The user's stored models stay in the shared database; a
// later Session(user) starts fresh.  The cancel happens under the
// registry lock, so a same-named session recreated immediately after
// cannot have its fresh jobs swept up by this close.
func (s *System) CloseSession(user string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[user]; !ok {
		return false
	}
	delete(s.sessions, user)
	s.Jobs.CancelOwner(user)
	return true
}

// Drain waits for every live job to reach a terminal state and every
// synchronous command to release its model, or for ctx to die — the
// graceful half of shutdown.  Drain does not stop new
// submissions; a serving front end stops accepting first, then drains,
// then Closes (which cancels whatever a timed-out drain left behind).
func (s *System) Drain(ctx context.Context) error { return s.Jobs.Drain(ctx) }

// Close shuts the system down: queued jobs are cancelled, running jobs
// are interrupted, the worker pool drains, and the store closes (every
// acknowledged write is already on disk — the store needs no flush).
// Idempotent.  In clustered mode the coordinator stops first,
// releasing the lease in place so a healthy peer takes over without
// waiting out the TTL.
func (s *System) Close() {
	if s.Cluster != nil {
		s.Cluster.Stop()
	}
	s.Jobs.Close()
	s.Store.Close()
}

// ValidateDesign checks every layer specification against its formal
// grammars — the design method's "firm up" step.
func (s *System) ValidateDesign() error {
	for _, l := range FEM2Layers() {
		if err := l.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Requirements is one simulated evaluation of a candidate configuration:
// the processing, storage, and communication requirements the paper's
// simulations were designed to measure, plus the resulting makespan.
type Requirements struct {
	Config       arch.Config
	Makespan     int64
	Flops        int64
	Messages     int64
	MessageWords int64
	StorageWords int64
	Utilization  float64
}

// Workload is a candidate workload the design iterator evaluates: it runs
// a representative computation on a fresh System and returns an error if
// the workload itself failed.
type Workload func(sys *System) error

// Evaluate builds a fresh system with cfg, runs the workload, collects
// the requirements, and closes the system.
func Evaluate(cfg arch.Config, w Workload) (*Requirements, error) {
	sys, err := Open(Options{Arch: cfg})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := w(sys); err != nil {
		return nil, err
	}
	var storage int64
	for _, c := range sys.Machine.Clusters() {
		storage += c.Memory.HighWater()
	}
	for _, k := range sys.Runtime.Kernels() {
		storage += k.Heap.HighWater()
	}
	return &Requirements{
		Config:       cfg,
		Makespan:     sys.Machine.Makespan(),
		Flops:        sys.Obs.Counter(obs.NAVMFlops).Load(),
		Messages:     sys.Machine.Network().TotalMessages(),
		MessageWords: sys.Machine.Network().TotalWords(),
		StorageWords: storage,
		Utilization:  sys.Machine.Utilization(),
	}, nil
}

// Objective scores a Requirements; lower is better.  The design iterator
// minimises it.
type Objective func(*Requirements) float64

// MakespanObjective minimises completion time.
func MakespanObjective(r *Requirements) float64 { return float64(r.Makespan) }

// ErrNoViableConfig is returned when no candidate configuration completes
// the workload.
var ErrNoViableConfig = errors.New("core: no candidate configuration completed the workload")

// IterationRecord documents one design iteration, per the method's
// requirement that the process be recorded and repeatable.
type IterationRecord struct {
	Iteration int
	Req       *Requirements
	Score     float64
	Best      bool
}

// DesignIterator runs the FEM-2 design method's iterate step: evaluate
// each candidate hardware configuration against the workload the upper
// layers impose, and keep the configuration with the best objective.
type DesignIterator struct {
	// Candidates is the hardware design space to sweep.
	Candidates []arch.Config
	// Workload is the representative upper-layer computation.
	Workload Workload
	// Objective scores each evaluation; defaults to MakespanObjective.
	Objective Objective
}

// Run evaluates every candidate and returns the winning requirements plus
// the full iteration history.
func (d *DesignIterator) Run() (*Requirements, []IterationRecord, error) {
	return d.RunContext(context.Background())
}

// RunContext is Run under a context: the sweep stops between candidates
// once ctx is done, returning an error wrapping errs.ErrCancelled
// together with the partial history.
func (d *DesignIterator) RunContext(ctx context.Context) (*Requirements, []IterationRecord, error) {
	if len(d.Candidates) == 0 {
		return nil, nil, fmt.Errorf("%w: core: design iterator has no candidates", errs.ErrUsage)
	}
	obj := d.Objective
	if obj == nil {
		obj = MakespanObjective
	}
	var best *Requirements
	bestScore := 0.0
	var history []IterationRecord
	for i, cfg := range d.Candidates {
		if err := ctx.Err(); err != nil {
			return nil, history, fmt.Errorf("%w: %w", errs.ErrCancelled, err)
		}
		req, err := Evaluate(cfg, d.Workload)
		if err != nil {
			// An infeasible configuration is part of the design
			// record, not a fatal error.
			history = append(history, IterationRecord{Iteration: i, Req: &Requirements{Config: cfg}, Score: -1})
			continue
		}
		score := obj(req)
		rec := IterationRecord{Iteration: i, Req: req, Score: score}
		if best == nil || score < bestScore {
			best, bestScore = req, score
			rec.Best = true
		}
		history = append(history, rec)
	}
	if best == nil {
		return nil, history, ErrNoViableConfig
	}
	return best, history, nil
}
