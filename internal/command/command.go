// Package command is the typed command layer of the FEM-2 application
// user's virtual machine.  It defines a Command AST with one struct per
// verb of the workstation language, a Parse lexer/parser from a command
// line to the AST, and typed Result values whose String renderings are
// exactly the REPL's display output.
//
// The interactive shell is a thin adapter over this layer: a REPL line
// is Parsed into a Command, interpreted by auvm.Session.Do, and the
// typed Result rendered back to text.  Programmatic callers — the
// experiment runners, multi-user servers, future RPC front ends — skip
// the text round trip entirely and work with the structs:
//
//	res, err := sess.Do(ctx, command.Solve{Model: "wing", Set: "cruise", Parallel: 8})
//	sr := res.(*command.SolveResult) // typed fields, no output parsing
//
// Every Command renders back to its canonical command line via String,
// and Parse(cmd.String()) reproduces the command, so the two styles are
// interchangeable.  Names are single whitespace-free tokens (the lexer
// splits on whitespace).
package command

import (
	"fmt"
	"reflect"
)

// Command is one typed AUVM request: a verb plus its arguments, built
// either by Parse from a command line or directly as a struct literal.
// String renders the canonical command-line form.
type Command interface {
	fmt.Stringer
	// isCommand restricts the interface to this package's verb structs.
	isCommand()
}

// Method selects a solver backend by name (see linalg.Backends).  The
// zero value selects the interpreter's default (banded Cholesky).  The
// solve row's signature lists linalg's method table, so the parser, the
// help text and the table name the same backends.
type Method string

// The built-in solver backends of the solve verb.
const (
	MethodCholesky    Method = "cholesky"
	MethodCholeskyRCM Method = "cholesky-rcm"
	MethodCholeskyEnv Method = "cholesky-env"
	MethodCG          Method = "cg"
	MethodSOR         Method = "sor"
	MethodJacobi      Method = "jacobi"
)

// Precond selects a preconditioner by registry name for iterative
// backends (see linalg.Preconds).  The zero value applies none.
type Precond string

// Help requests the command-language summary.
type Help struct{}

// Ping is the round-trip health check: the interpreter answers "pong"
// immediately, touching no state.  Network clients and CI probes use it
// to confirm a live session end to end.
type Ping struct{}

// Version reports the software release and wire protocol revision the
// serving side speaks.
type Version struct{}

// Stats returns a point-in-time snapshot of the serving system's live
// metrics — job throughput, queue depth, the factor cache's hit rate,
// per-verb latency histograms (see internal/obs).  Read-only and answerable
// while draining or degraded, like ping.
type Stats struct{}

// Quit ends the session; the interpreter answers with ErrQuit.
type Quit struct{}

// Define creates an empty structure model in the workspace.
type Define struct {
	// Name is the new model's name.
	Name string
}

// SetMaterial sets the session's current material, applied by subsequent
// generate and element commands.
type SetMaterial struct {
	// E is Young's modulus, Nu Poisson's ratio, T the plane-stress
	// thickness, and A the bar cross-section area.
	E, Nu, T, A float64
}

// GenerateGrid generates a rectangular plane-stress grid of CST
// elements.
type GenerateGrid struct {
	// Name is the model name.
	Name string
	// NX, NY count grid cells; W, H are the overall dimensions.
	NX, NY int
	W, H   float64
	// ClampLeft fixes the left edge.
	ClampLeft bool
	// Jitter perturbs interior nodes by the given fraction of the cell
	// size under Seed; zero means a regular grid.
	Jitter float64
	Seed   int64
}

// GenerateTruss generates a triangulated cantilever truss of bar
// elements.
type GenerateTruss struct {
	// Name is the model name.
	Name string
	// Bays counts truss bays; BayLen and Height size each bay.
	Bays           int
	BayLen, Height float64
}

// GenerateBar generates a uniaxial bar chain.
type GenerateBar struct {
	// Name is the model name.
	Name string
	// Segments counts bar segments over the total Length.
	Segments int
	Length   float64
}

// AddNode appends a node to a model.
type AddNode struct {
	// Model names the workspace model; X, Y are the coordinates.
	Model string
	X, Y  float64
}

// AddBar appends a two-node bar element to a model.
type AddBar struct {
	// Model names the workspace model; N1, N2 are node indices.
	Model  string
	N1, N2 int
}

// AddCST appends a three-node constant-strain-triangle element to a
// model.
type AddCST struct {
	// Model names the workspace model; N1, N2, N3 are node indices.
	Model      string
	N1, N2, N3 int
}

// FixNode fixes both degrees of freedom of a node.
type FixNode struct {
	// Model names the workspace model; Node is the node index.
	Model string
	Node  int
}

// FixDOF fixes a single degree of freedom.
type FixDOF struct {
	// Model names the workspace model; DOF is the dof index.
	Model string
	DOF   int
}

// DefineLoadSet creates an empty named load set on a model.
type DefineLoadSet struct {
	// Model names the workspace model; Set the new load set.
	Model, Set string
}

// AddLoad appends one nodal load to a load set (creating the set if
// needed).
type AddLoad struct {
	// Model and Set name the target load set; DOF and Value give the
	// applied load.
	Model, Set string
	DOF        int
	Value      float64
}

// EndLoad spreads a force over the right edge of a generated grid model.
type EndLoad struct {
	// Model and Set name the target load set; FX, FY are the total edge
	// force components.
	Model, Set string
	FX, FY     float64
}

// Solve solves a model/load-set pair for displacements.  Exactly one
// strategy applies: Substructures > 0 condenses that many substructures
// in parallel; otherwise Parallel > 0 runs the Method's distributed
// variant on that many simulated workers; otherwise the sequential Method
// runs (zero value = Cholesky).
type Solve struct {
	// Model and Set name the system to solve.
	Model, Set string
	// Method selects the solver backend ("" = cholesky).
	Method Method
	// Precond selects the preconditioner for iterative backends ("" =
	// none).
	Precond Precond
	// Parallel, when positive, solves with the backend's distributed
	// variant on that many simulated workers.
	Parallel int
	// Substructures, when positive, partitions the model into that many
	// vertical bands and condenses them in parallel.
	Substructures int
}

// Stresses recovers element stresses from a model's latest solution.
type Stresses struct {
	// Model names the solved workspace model.
	Model string
}

// DisplayKind selects what the display verb shows.
type DisplayKind string

// The display targets.
const (
	DisplayModel         DisplayKind = "model"
	DisplayDisplacements DisplayKind = "displacements"
	DisplayStresses      DisplayKind = "stresses"
)

// Display summarises a model, its displacements, or its stresses.
type Display struct {
	// What selects the summary; Model names the workspace model.
	What  DisplayKind
	Model string
}

// Store serializes a workspace model and its load sets into the shared
// database.
type Store struct {
	// Model names the workspace model.
	Model string
}

// Retrieve copies a model and its load sets from the shared database
// into the workspace.
type Retrieve struct {
	// Name is the stored model's name.
	Name string
}

// Delete removes a model from the shared database.
type Delete struct {
	// Name is the stored model's name.
	Name string
}

// ListKind selects what the list verb enumerates.
type ListKind string

// The list targets.
const (
	ListDB        ListKind = "db"
	ListWorkspace ListKind = "workspace"
)

// List enumerates the shared database or the session workspace.
type List struct {
	// What selects the store to enumerate.
	What ListKind
}

// Snapshot writes the session's entire workspace — every model with
// its load sets, latest solution and stresses, plus the interpreter
// state — to a file the restore verb can load into a fresh session.
// The file is written on the serving side (the daemon's filesystem
// when issued over the wire).
type Snapshot struct {
	// Path is the snapshot file to write.
	Path string
}

// Restore loads a snapshot file into the session's workspace,
// overwriting models of the same name.
type Restore struct {
	// Path is the snapshot file to read.
	Path string
}

// JobState names a job lifecycle state in the command language.  These
// are the canonical names: the jobs verb's state filter accepts them,
// job results render them, and internal/job maps its State enum onto
// them, so the command layer and the scheduler always agree.
type JobState string

// The job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// JobStates returns every job state name, lifecycle order.
func JobStates() []JobState {
	return []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled}
}

// Submit runs another command as an asynchronous job: the interpreter
// answers immediately with a job id while the wrapped command executes
// on the system's scheduler.  Job-control verbs and quit cannot
// themselves be submitted.
type Submit struct {
	// Cmd is the wrapped command to run asynchronously.
	Cmd Command
}

// Status reports one job's state and accounting.
type Status struct {
	// ID is the job id.
	ID int64
}

// Wait blocks until a job finishes and yields the wrapped command's own
// result — so submit…wait displays exactly what the synchronous command
// would have.
type Wait struct {
	// ID is the job id.
	ID int64
}

// Cancel stops a queued or running job.
type Cancel struct {
	// ID is the job id.
	ID int64
}

// Jobs enumerates the scheduler's jobs, optionally filtered by owner
// and state.
type Jobs struct {
	// Owner, when non-empty, restricts the listing to one user.
	Owner string
	// State, when non-empty, restricts the listing to one lifecycle
	// state.
	State JobState
}

func (Help) isCommand()          {}
func (Ping) isCommand()          {}
func (Version) isCommand()       {}
func (Quit) isCommand()          {}
func (Define) isCommand()        {}
func (SetMaterial) isCommand()   {}
func (GenerateGrid) isCommand()  {}
func (GenerateTruss) isCommand() {}
func (GenerateBar) isCommand()   {}
func (AddNode) isCommand()       {}
func (AddBar) isCommand()        {}
func (AddCST) isCommand()        {}
func (FixNode) isCommand()       {}
func (FixDOF) isCommand()        {}
func (DefineLoadSet) isCommand() {}
func (AddLoad) isCommand()       {}
func (EndLoad) isCommand()       {}
func (Solve) isCommand()         {}
func (Stresses) isCommand()      {}
func (Display) isCommand()       {}
func (Store) isCommand()         {}
func (Retrieve) isCommand()      {}
func (Delete) isCommand()        {}
func (List) isCommand()          {}
func (Snapshot) isCommand()      {}
func (Restore) isCommand()       {}
func (Submit) isCommand()        {}
func (Status) isCommand()        {}
func (Wait) isCommand()          {}
func (Cancel) isCommand()        {}
func (Jobs) isCommand()          {}
func (Stats) isCommand()         {}

// Value returns the value form of cmd: a pointer command is dereferenced
// so the value and pointer spellings dispatch identically everywhere a
// command is interpreted (callers naturally write &fem2.SolveCommand{…}
// since every result comes back as a pointer).
func Value(cmd Command) Command {
	if v := reflect.ValueOf(cmd); v.Kind() == reflect.Pointer && !v.IsNil() {
		if c, ok := v.Elem().Interface().(Command); ok {
			return c
		}
	}
	return cmd
}

// String renders the canonical command line from the verb's row.
func (c Help) String() string          { return line(c) }
func (c Ping) String() string          { return line(c) }
func (c Version) String() string       { return line(c) }
func (c Stats) String() string         { return line(c) }
func (c Quit) String() string          { return line(c) }
func (c Define) String() string        { return line(c) }
func (c SetMaterial) String() string   { return line(c) }
func (c GenerateGrid) String() string  { return line(c) }
func (c GenerateTruss) String() string { return line(c) }
func (c GenerateBar) String() string   { return line(c) }
func (c AddNode) String() string       { return line(c) }
func (c AddBar) String() string        { return line(c) }
func (c AddCST) String() string        { return line(c) }
func (c FixNode) String() string       { return line(c) }
func (c FixDOF) String() string        { return line(c) }
func (c DefineLoadSet) String() string { return line(c) }
func (c AddLoad) String() string       { return line(c) }
func (c EndLoad) String() string       { return line(c) }
func (c Solve) String() string         { return line(c) }
func (c Stresses) String() string      { return line(c) }
func (c Display) String() string       { return line(c) }
func (c Store) String() string         { return line(c) }
func (c Retrieve) String() string      { return line(c) }
func (c Delete) String() string        { return line(c) }
func (c List) String() string          { return line(c) }
func (c Snapshot) String() string      { return line(c) }
func (c Restore) String() string       { return line(c) }
func (c Submit) String() string        { return line(c) }
func (c Status) String() string        { return line(c) }
func (c Wait) String() string          { return line(c) }
func (c Cancel) String() string        { return line(c) }
func (c Jobs) String() string          { return line(c) }
