package job

import (
	"context"
	"fmt"

	"repro/internal/errs"
)

// This file is the multi-tenant service surface of the scheduler: the
// per-owner admission control a network front end points at sessions,
// the job-event subscription it turns into server-pushed
// notifications, and the drain primitive its graceful shutdown waits
// on.  All of it is owner-keyed bookkeeping over the same mutex the
// scheduler already holds at every lifecycle transition, so the hooks
// cost nothing when unused.

// ErrQuota is returned by Submit when the per-owner admission control
// refuses a submission: its owner is at the in-flight bound.
var ErrQuota = errs.ErrQuota

// SetQuota bounds each owner's live (queued or running) jobs at max: a
// submit past the bound is refused at once with ErrQuota.  max <= 0
// disables admission control (the default).
func (s *Scheduler) SetQuota(max int) {
	s.mu.Lock()
	s.quota = max
	s.mu.Unlock()
}

// admitLocked gates one submission by owner: closed scheduler, then the
// per-owner quota.
func (s *Scheduler) admitLocked(owner string) error {
	if s.closed {
		return ErrClosed
	}
	if s.quota > 0 && s.live[owner] >= s.quota {
		return fmt.Errorf("%w: %s has %d jobs in flight (max %d)",
			ErrQuota, owner, s.live[owner], s.quota)
	}
	return nil
}

// Subscribe registers fn to receive a Snapshot at every lifecycle
// transition — queued, running, and the terminal states — of owner's
// jobs, and of nobody else's.  It returns the unsubscribe function.
// fn is invoked with the scheduler's mutex held, so it must be fast
// and must not call back into the scheduler: hand the snapshot to a
// channel or queue and return.
func (s *Scheduler) Subscribe(owner string, fn func(Snapshot)) (cancel func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subs[owner] == nil {
		s.subs[owner] = map[int]func(Snapshot){}
	}
	s.subNext++
	id := s.subNext
	s.subs[owner][id] = fn
	return func() {
		s.mu.Lock()
		delete(s.subs[owner], id)
		if len(s.subs[owner]) == 0 {
			delete(s.subs, owner)
		}
		s.mu.Unlock()
	}
}

// publishLocked fans the job's current snapshot out to its owner's
// subscribers, building it only when there is one.  Called under the
// mutex at each state transition, so subscribers observe transitions in
// true order.
func (s *Scheduler) publishLocked(j *job) {
	subs := s.subs[j.owner]
	if len(subs) == 0 {
		return
	}
	snap := s.snapshotLocked(j)
	for _, fn := range subs {
		fn(snap)
	}
}

// finishLocked settles a job that just reached a terminal state: wake
// its waiters and drop what ran it (its executor, context and cancel;
// the caller has cancelled the context), release the owner's quota slot,
// wake the model waiters and Drain when one waits, journal the outcome
// and publish the transition.  What runs next in the queue is execute's
// caller's to start.  Called exactly once per job, from execute or
// cancelQueuedLocked.
func (s *Scheduler) finishLocked(j *job) {
	close(j.done)
	j.done, j.ex, j.ctx, j.cancel = finished, nil, nil, nil
	if n := s.live[j.owner]; n > 1 {
		s.live[j.owner] = n - 1
	} else {
		delete(s.live, j.owner)
	}
	s.liveTotal--
	if s.waiting > 0 || s.draining > 0 {
		s.cond.Broadcast()
	}
	j.filed = s.persistLocked(j)
	s.publishLocked(j)
}

// Drain blocks until no work is in flight or ctx dies, whichever is
// first — the graceful-shutdown wait.  Work is in flight while a job is
// live, a synchronous command holds a model (Hold), or one waits for its
// model.  Drain does not stop new submissions; the caller decides what
// "no new work" means (a server stops accepting, then drains, then
// Closes).
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inFlightLocked() {
		return nil
	}
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.draining++
	defer func() { s.draining-- }()
	for s.inFlightLocked() {
		if err := errs.Cancelled(ctx); err != nil {
			return err
		}
		s.cond.Wait()
	}
	return nil
}

// inFlightLocked reports whether Drain has work to wait for: a live job,
// a model held by a synchronous command, or a goroutine waiting for a
// model.
func (s *Scheduler) inFlightLocked() bool {
	if s.liveTotal > 0 || s.waiting > 0 {
		return true
	}
	for _, h := range s.busy {
		if h.id == 0 {
			return true
		}
	}
	return false
}
