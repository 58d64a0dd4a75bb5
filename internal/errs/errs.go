// Package errs defines the FEM-2 reproduction's shared error taxonomy.
// Every layer (auvm, fem, core, the command parser) wraps these
// sentinels, so callers classify failures with errors.Is regardless of
// which virtual machine level produced them:
//
//	ErrNotFound  — a named object (model, load set, solution) does not
//	               exist where the operation looked for it,
//	ErrUsage     — the request is malformed or ineligible (bad verb,
//	               bad arguments, unknown option, an argument the
//	               target cannot accept),
//	ErrCancelled — the request's context was cancelled or its deadline
//	               expired before the operation completed.
package errs

import (
	"context"
	"errors"
	"fmt"
)

// ErrNotFound reports a lookup of a named object that does not exist.
var ErrNotFound = errors.New("not found")

// ErrUsage reports a malformed or ineligible request: unknown verb,
// wrong argument count or type, an unknown option, or an argument the
// target cannot accept.
var ErrUsage = errors.New("usage")

// ErrCancelled reports that a context was cancelled or timed out before
// the operation completed.
var ErrCancelled = errors.New("cancelled")

// The sentinels of the service layers, defined here so the wire
// protocol's one code table (wire.Errors) can name them; each layer keeps
// its own name for its sentinel as an alias.
var (
	// ErrQuit is auvm.ErrQuit: the user issued the quit command.
	ErrQuit = errors.New("auvm: quit")
	// ErrQuota is job.ErrQuota: per-owner admission control rejected a
	// submission.
	ErrQuota = errors.New("job: quota exceeded")
	// ErrClosed is job.ErrClosed: the job scheduler has shut down.
	ErrClosed = errors.New("job: scheduler closed")
	// ErrDegraded is store.ErrDegraded: the store is read-only.
	ErrDegraded = errors.New("store: degraded (read-only)")
	// ErrNotLeader is cluster.ErrNotLeader: the daemon does not hold the
	// lease.
	ErrNotLeader = errors.New("cluster: not the leader")
)

// Usage builds a request-specific error wrapping ErrUsage; the parser
// and the interpreters share it so usage errors format identically at
// every layer.
func Usage(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUsage, fmt.Sprintf(format, args...))
}

// Cancelled converts a context cancellation into the taxonomy: nil while
// ctx is live, an error wrapping both ErrCancelled and the context's own
// error once it is done.  Every layer's cancellation points share it so
// errors.Is(err, ErrCancelled) and errors.Is(err, context.Canceled) both
// classify the failure.
func Cancelled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	return nil
}
