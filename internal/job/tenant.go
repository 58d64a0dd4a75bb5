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
// rejects a submission (QuotaReject policy, owner at the in-flight
// bound).
var ErrQuota = errs.ErrQuota

// QuotaPolicy selects what Submit does when an owner is at the
// in-flight bound.
type QuotaPolicy int

const (
	// QuotaReject fails the submission immediately with ErrQuota — the
	// saturated tenant is told to back off.
	QuotaReject QuotaPolicy = iota
	// QuotaQueue blocks the submitting goroutine until one of the
	// owner's live jobs finishes (or the submit context dies) — the
	// saturated tenant is slowed down instead of refused.
	QuotaQueue
)

// String renders the canonical policy name.
func (p QuotaPolicy) String() string {
	switch p {
	case QuotaReject:
		return "reject"
	case QuotaQueue:
		return "queue"
	default:
		return fmt.Sprintf("QuotaPolicy(%d)", int(p))
	}
}

// ParseQuotaPolicy maps a canonical policy name back to its
// QuotaPolicy.
func ParseQuotaPolicy(name string) (QuotaPolicy, error) {
	switch name {
	case "reject":
		return QuotaReject, nil
	case "queue":
		return QuotaQueue, nil
	default:
		return 0, errs.Usage("unknown quota policy %q (want reject or queue)", name)
	}
}

// SetQuota bounds each owner's live (queued or running) jobs at max,
// with policy deciding between rejecting and blocking at the bound.
// max <= 0 disables admission control (the default).  Raising or
// disabling the quota releases submitters blocked under QuotaQueue.
func (s *Scheduler) SetQuota(max int, policy QuotaPolicy) {
	s.mu.Lock()
	s.quota, s.policy = max, policy
	s.cond.Broadcast()
	s.mu.Unlock()
}

// admitLocked gates one submission by owner: closed scheduler, then the
// per-owner quota.  Under QuotaQueue it waits on the scheduler's cond —
// releasing the mutex — until a slot frees, the quota changes, the
// scheduler closes, or ctx dies, and re-checks from the top.
func (s *Scheduler) admitLocked(ctx context.Context, owner string) error {
	if s.closed {
		return ErrClosed
	}
	if s.quota <= 0 || s.live[owner] < s.quota {
		return nil
	}
	if s.policy == QuotaReject {
		return fmt.Errorf("%w: %s has %d jobs in flight (max %d)",
			ErrQuota, owner, s.live[owner], s.quota)
	}
	// The cond has no ctx case of its own; wake the wait loop when the
	// submit context dies so a blocked tenant is never stuck behind work
	// it no longer wants to wait for.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	for !s.closed && s.quota > 0 && s.live[owner] >= s.quota {
		if err := errs.Cancelled(ctx); err != nil {
			return err
		}
		s.cond.Wait()
	}
	if s.closed {
		return ErrClosed
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

// finishLocked settles the owner-keyed bookkeeping of a job that just
// reached a terminal state: release the owner's quota slot, wake
// model waiters, quota-blocked submitters and Drain, wake one worker
// when jobs are queued (the job's model may be what one of them waited
// for), journal the outcome and publish the transition.  Called exactly
// once per job, from execute or cancelQueuedLocked.
func (s *Scheduler) finishLocked(j *job) {
	if n := s.live[j.owner]; n > 1 {
		s.live[j.owner] = n - 1
	} else {
		delete(s.live, j.owner)
	}
	s.liveTotal--
	s.cond.Broadcast()
	if len(s.queue) > 0 {
		s.work.Signal()
	}
	j.journaled = s.persistLocked(j)
	s.publishLocked(j)
}

// Drain blocks until every live job reaches a terminal state or ctx
// dies, whichever is first — the graceful-shutdown wait.  Drain does
// not stop new submissions; the caller decides what "no new work"
// means (a server stops accepting, then drains, then Closes).
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.liveTotal == 0 {
		return nil
	}
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	for s.liveTotal > 0 {
		if err := errs.Cancelled(ctx); err != nil {
			return err
		}
		s.cond.Wait()
	}
	return nil
}
