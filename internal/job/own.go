package job

import "context"

// Own lets the goroutine that submits a Heavy job run it itself, instead
// of starting a worker for it: a network front end's connection reader,
// which has nothing to do between answering a submit and reading the
// next request.  A Submit under WithOwn(ctx, o) queues its Heavy job
// without starting a worker and records it in o; the submitter then
// calls Take once, and Run if Take says so.  Every job recorded in an Own
// thus either runs on its submitter or is dispatched as a plain Submit's
// would have been.  An Own holds one job at a time and is used by one
// goroutine.
type Own struct {
	s *Scheduler
	j *job
}

// ownKey is the context key WithOwn stores its *Own under.
type ownKey struct{}

// WithOwn returns a context under which a Heavy Submit leaves its job to
// the submitter's Take.  The context is built once and reused for every
// submit of one goroutine; the job's own context derives from it.
func WithOwn(ctx context.Context, o *Own) context.Context {
	return context.WithValue(ctx, ownKey{}, o)
}

// Take decides where the job o holds runs, and reports whether the
// caller runs it (Run, at once).  It does when the pool is idle — no
// pooled job executing on a worker or on another submitter — the job is
// the only one queued, and its model is free; the job is then running
// and takes a pool slot, so the worker bound still holds.  Otherwise it
// starts a worker if the job can run now, or leaves it to wait its turn
// in the queue, and o is emptied.  Take of an empty Own reports false and
// does nothing.
func (o *Own) Take() bool {
	s, j := o.s, o.j
	if j == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, held := s.busy[j.key()]; s.executing > 0 || len(s.queue) != 1 ||
		s.queue[0] != j || j.state != Queued || (j.model != "" && held) {
		o.j = nil
		s.dispatchLocked()
		return false
	}
	s.queue = s.queue[:0]
	s.syncQueueGaugeLocked()
	s.wg.Add(1) // Close, which has not run (j is queued), waits for it as for a worker
	s.startLocked(j)
	return true
}

// Run executes the job Take gave the caller, on the caller's goroutine,
// and empties o.
func (o *Own) Run() {
	s, j := o.s, o.j
	o.j = nil
	defer s.wg.Done()
	s.execute(j)
	// The job's end freed a pool slot and its model.
	s.dispatchLocked()
	s.mu.Unlock()
}
