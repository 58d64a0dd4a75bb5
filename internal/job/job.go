// Package job is the asynchronous job service of the FEM-2 front end:
// the concurrency story the paper's interactive multi-workstation
// machine implies.  Many engineers share one model database over one
// simulated multiprocessor, so the top-layer API must let many sessions
// submit, monitor, and cancel long-running work concurrently instead of
// blocking each caller's goroutine for the length of a solve.
//
// A Scheduler runs a bounded number of jobs at once.  Submit enqueues a
// heavy command (a solve) as a job and returns its JobID immediately; the
// job starts on a worker goroutine of its own once it can run, and that
// worker takes the next runnable job when it ends or exits.  Cheap
// commands run inline on the caller's goroutine but still leave a job
// record, so the submit→status→wait surface is uniform.  Per-model
// locking serializes jobs that touch the same model name while jobs on
// different models proceed in parallel up to the bound.  Cancellation
// rides the context plumbing every solver kernel already polls: Cancel
// (or cancelling the context passed to Submit) cancels a queued job
// outright and interrupts a running one mid-solve.
//
// The package sits between command (the typed AST and results it stores)
// and auvm (whose Session satisfies Executor); it deliberately imports
// neither auvm nor core, so the session and system layers can build on
// it without a cycle.
package job

import (
	"fmt"

	"repro/internal/command"
	"repro/internal/errs"
)

// JobID identifies one submitted job.  IDs are assigned by the scheduler
// in submission order, starting at 1.
type JobID int64

// String renders the id as the command language displays and accepts it.
func (id JobID) String() string { return fmt.Sprintf("job-%d", int64(id)) }

// State is a job's lifecycle state.
type State int

// The job lifecycle: Queued → Running → one of the terminal states.
// Cheap commands run inline and are first observable in a terminal
// state; a queued job cancelled before a worker picks it up goes
// straight to Cancelled.
const (
	// Queued means the job is waiting for a worker (or for its model's
	// lock).
	Queued State = iota
	// Running means a worker is executing the job.
	Running
	// Done means the job finished and its Result is stored.
	Done
	// Failed means the job's command returned a non-cancellation error.
	Failed
	// Cancelled means the job was stopped — before it started, or
	// mid-run through its context.
	Cancelled
)

// String renders the canonical state name shared with the command layer.
func (s State) String() string {
	switch s {
	case Queued:
		return string(command.JobQueued)
	case Running:
		return string(command.JobRunning)
	case Done:
		return string(command.JobDone)
	case Failed:
		return string(command.JobFailed)
	case Cancelled:
		return string(command.JobCancelled)
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// ParseState maps a canonical state name back to its State.
func ParseState(name string) (State, error) {
	for _, s := range []State{Queued, Running, Done, Failed, Cancelled} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, errs.Usage("unknown job state %q", name)
}

// Snapshot is an immutable view of one job, safe to hold after the job
// moves on.
type Snapshot struct {
	// ID identifies the job; Owner is the submitting user.
	ID    JobID
	Owner string
	// Cmd is the job's command.
	Cmd command.Command
	// Model is the serialization key, "" when the command touches no
	// model.
	Model string
	// State is the lifecycle state at snapshot time.
	State State
	// Result and Err are the stored outcome of a terminal job: the
	// command's typed result, and its error for failed or cancelled
	// jobs.
	Result command.Result
	Err    error
	// Ops, Flops, and Cycles attribute work to this job alone: AUVM
	// operations (1 once the command was dispatched, 0 for a job
	// cancelled before it ran), solver floating point operations, and
	// simulated machine cycles (parallel solves only).
	Ops, Flops, Cycles int64
}

// Filter selects jobs for List.  Zero fields match everything.
type Filter struct {
	// Owner, when non-empty, matches jobs submitted by that user.
	Owner string
	// States, when non-empty, matches jobs in any of the given states.
	States []State
}

// match reports whether a snapshot passes the filter.
func (f Filter) match(s Snapshot) bool {
	if f.Owner != "" && s.Owner != f.Owner {
		return false
	}
	if len(f.States) > 0 {
		ok := false
		for _, st := range f.States {
			if s.State == st {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// admitsTerminal reports whether the filter can match a terminal job.
func (f Filter) admitsTerminal() bool {
	if len(f.States) == 0 {
		return true
	}
	for _, st := range f.States {
		if st.Terminal() {
			return true
		}
	}
	return false
}
