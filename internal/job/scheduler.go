package job

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"time"

	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/obs"
	"repro/internal/store"
)

// ErrClosed is returned by Submit after the scheduler shuts down.
var ErrClosed = errs.ErrClosed

// Executor runs one typed command — auvm.Session satisfies it, and the
// scheduler never needs to know about sessions beyond this.  A job's
// DoHeld is invoked on a worker goroutine (on the submitter's goroutine
// for cheap commands and Own) with the command's model already held
// for it; the context it receives is the job's own cancellable context
// and carries nothing else.
type Executor interface {
	DoHeld(ctx context.Context, cmd command.Command) (command.Result, error)
}

// modelKey names one owner's model — the unit the scheduler serializes
// on.  Workspaces are per owner, so two owners' models of one name are
// two models.
type modelKey struct{ owner, model string }

// holder says who holds a model: the job with that id, or (id 0) a
// synchronous command.
type holder struct {
	id  JobID
	cmd command.Command
}

func (h holder) String() string {
	if h.id != 0 {
		return h.id.String() + " running"
	}
	return "a synchronous " + command.Verb(h.cmd) + " running"
}

// job is one unit of work.  Lifecycle fields are guarded by the
// scheduler's mutex; the immutable identity fields are set at submit
// time and never written again.
type job struct {
	id    JobID
	owner string
	model string
	cmd   command.Command

	// What runs the job: its executor, and its context and that
	// context's cancel.  finishLocked drops them, under Scheduler.mu, so
	// whoever reads them outside the lock reads them before the job can
	// finish (execute) or copies them under the lock (Cancel); a job
	// recovered from the journal never has them.
	ex     Executor
	ctx    context.Context
	cancel context.CancelFunc

	// Guarded by Scheduler.mu.
	state              State
	res                command.Result
	err                error
	ops, flops, cycles int64
	// pooled marks a Heavy job: it takes a pool slot while it runs, on a
	// worker or on its submitter (Own), and is counted in executing.
	pooled bool
	// filed records that the journal holds the job's whole terminal
	// record, result included (recordLocked did not leave it out): it
	// answers everything the job does, so a Wait may settle the job and
	// retention eviction has nothing to flush.  It stays false after a
	// failed write, with no journal attached, on a record written without
	// its result, and on a job recovered from a record under another id's
	// key: those are written at eviction.
	filed bool
	// done is closed exactly once, when the job reaches a terminal
	// state; then finishLocked points it at finished.  Read under
	// Scheduler.mu.
	done chan struct{}
}

// finished is the done channel of every finished job: closed, so a wait
// on it returns at once, and shared, so a finished job keeps no channel
// of its own.
var finished = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (j *job) key() modelKey { return modelKey{j.owner, j.model} }

// Scheduler is the multi-tenant job service: a queue of submitted
// commands run by at most workers goroutines at once, with per-model
// serialization and full job bookkeeping.  A worker goroutine exists only
// while it has a job.  All methods are safe for concurrent use by any
// number of sessions.
type Scheduler struct {
	workers int

	mu sync.Mutex
	// cond is where everyone waits for a change of scheduler state:
	// model-lock waiters (awaitLocked: inline jobs and synchronous
	// solves), counted in waiting, and Drain, counted in draining.  Each
	// waiter re-checks its own condition, so it is broadcast at every
	// change that may satisfy one while one waits — a finish or a
	// Release — and at Close and a waiter's dead context.
	cond   *sync.Cond
	closed bool
	next   int64
	// jobs holds the retained jobs in full.
	jobs map[JobID]*job
	// order holds the ids of every retained job in submission order, for
	// retention eviction: a queue evictLocked consumes from the head.  An
	// id in order but not in jobs is settled: a terminal job whose
	// journal record is its only full copy, settled once delivered
	// (settleLocked) or recovered.
	order []JobID
	// orderExamined counts the entries of order evictLocked has looked at
	// — what the scaling test reads in place of a clock.
	orderExamined int64
	// retain bounds the jobs kept, full and settled alike (order): when
	// they outnumber it, the oldest terminal jobs are evicted (live jobs
	// never are).
	retain int
	queue  []*job
	// busy holds the models currently held, by a running job or by a
	// synchronous command (Hold); a queued job whose model is busy is
	// skipped until it frees.
	busy map[modelKey]holder
	// waiting counts the goroutines blocked on cond for a model — inline
	// jobs and synchronous solves; wakes counts the wake-ups Release made,
	// a dispatch for the queue and a cond broadcast for them.
	waiting int
	wakes   int64
	// draining counts the Drain calls waiting on cond; Release wakes
	// them, since a synchronous command's hold keeps a drain waiting.
	draining int
	// executing counts the pooled jobs running, on a worker or on their
	// submitter: nextLocked starts a job only while it is below workers,
	// so the bound holds wherever a Heavy job runs.
	executing int
	// live counts each owner's queued-or-running jobs; liveTotal is
	// their sum.  quota bounds live per owner when positive: a submit
	// past it is refused (see tenant.go).
	live      map[string]int
	liveTotal int
	quota     int
	// subs are the job-event subscribers, keyed by owner and then by
	// registration id.
	subs    map[string]map[int]func(Snapshot)
	subNext int
	// journal, when non-nil, persists job records through the system's
	// store (see journal.go): queued at submit (unless forget is set),
	// terminal at finish, and flushed before retention eviction.  It is
	// set before traffic: a settled job is read back from it.
	journal store.Store
	// forget makes retention eviction delete the evicted job's record
	// instead (ForgetEvicted).
	forget bool
	// rec is the record recordLocked encodes from, and recBuf the buffer
	// it encodes into; the store copies what it is given, and rec is
	// cleared after each encode.
	rec    journalRecord
	recBuf []byte
	// unread is why the last recovery scan of the journal failed, nil
	// once one has succeeded.  While it is set the journal's highest id
	// is unknown, so an id issued could be one it already holds, and the
	// job's record would overwrite that one: Submit scans again first
	// (rereadJournal) and refuses while the scan fails.  recovery
	// serializes the scans, so no two load the same records.
	unread   error
	recovery sync.Mutex
	// closing serializes Close, so a second Close returns only once the
	// first has unsettled the retained jobs.
	closing sync.Mutex
	// journalErrs counts journal writes that failed.  A journal failure
	// never takes down the scheduler — the write is logged through logf
	// and the job carries on — but the count surfaces the rot.
	journalErrs int64
	// epoch, when non-nil, reports the cluster lease epoch this daemon
	// holds (see internal/cluster); journal records are stamped with it
	// so a takeover can tell which leadership stint wrote what.
	epoch func() int64
	logf  func(format string, args ...any)
	wg    sync.WaitGroup

	// The live metrics (SetObs) are nil no-op sinks until a registry is
	// installed, so a bare scheduler observes for free.  Handles are
	// resolved once — hLatency's per verb, on a verb's first job — and
	// observed lock-free on the hot path.
	hLatency       *obs.HistogramFamily // job.latency.<verb>
	mSubmitted     *obs.Counter
	mDone          *obs.Counter
	mFailed        *obs.Counter
	mCancelled     *obs.Counter
	mQuotaRejected *obs.Counter
	mJournalErrs   *obs.Counter
	mPanics        *obs.Counter
	gQueueDepth    *obs.Gauge
	gRunning       *obs.Gauge
	gWorkers       *obs.Gauge
	gSettled       *obs.Gauge
}

// DefaultRetainedJobs bounds the job history a scheduler keeps by
// default — enough for any interactive or test workload while keeping a
// long-lived multi-tenant service's memory flat.
const DefaultRetainedJobs = 4096

// NewScheduler returns a scheduler that runs at most workers Heavy jobs
// at once (<= 0 selects GOMAXPROCS).  A worker goroutine starts when a
// queued job can run and exits when no queued job can, so an idle
// scheduler has none.
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		workers: workers,
		retain:  DefaultRetainedJobs,
		jobs:    map[JobID]*job{},
		busy:    map[modelKey]holder{},
		live:    map[string]int{},
		subs:    map[string]map[int]func(Snapshot){},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// SetEpochSource wires the cluster lease epoch into journal records.
// f is called under the scheduler lock at each journal write, so it
// must be cheap and non-blocking (cluster.Coordinator.Epoch is both).
// Nil reverts to unstamped records.
func (s *Scheduler) SetEpochSource(f func() int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = f
}

// SetObs routes the scheduler's live metrics through reg (see
// internal/obs and docs/observability.md for the catalog).  Metric
// pointers are resolved once here; nil reg leaves them as no-op sinks.
// Call before traffic — typically right after NewScheduler.
func (s *Scheduler) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hLatency = reg.HistogramFamily(obs.JobLatencyPrefix)
	s.mSubmitted = reg.Counter(obs.JobSubmitted)
	s.mDone = reg.Counter(obs.JobDone)
	s.mFailed = reg.Counter(obs.JobFailed)
	s.mCancelled = reg.Counter(obs.JobCancelled)
	s.mQuotaRejected = reg.Counter(obs.JobQuotaRejected)
	s.mJournalErrs = reg.Counter(obs.JobJournalErrors)
	s.mPanics = reg.Counter(obs.ServerPanics)
	s.gQueueDepth = reg.Gauge(obs.JobQueueDepth)
	s.gRunning = reg.Gauge(obs.JobRunning)
	s.gWorkers = reg.Gauge(obs.JobWorkers)
	s.gWorkers.Set(int64(s.workers))
	s.gSettled = reg.Gauge(obs.JobSettled)
	s.syncSettledGaugeLocked()
}

// settledLocked returns the settled ids, oldest first: the retained ids
// not held in full.
func (s *Scheduler) settledLocked() []JobID {
	var settled []JobID
	for _, id := range s.order {
		if _, full := s.jobs[id]; !full {
			settled = append(settled, id)
		}
	}
	return settled
}

// syncSettledGaugeLocked publishes the number of settled jobs.
func (s *Scheduler) syncSettledGaugeLocked() {
	s.gSettled.Set(int64(len(s.order) - len(s.jobs)))
}

// syncQueueGaugeLocked publishes the current heavy-queue length.  Jobs
// cancelled while queued stay in the slice until popLocked passes
// them, so the gauge can briefly overcount by the cancelled stragglers.
func (s *Scheduler) syncQueueGaugeLocked() {
	s.gQueueDepth.Set(int64(len(s.queue)))
}

// SetLogf installs the scheduler's diagnostic log sink (the daemon's
// logger).  Only journal write failures and panics in executed
// commands log; nil silences them.
func (s *Scheduler) SetLogf(f func(format string, args ...any)) {
	s.mu.Lock()
	s.logf = f
	s.mu.Unlock()
}

// logfLocked logs through the installed sink, if any.
func (s *Scheduler) logfLocked(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// SetRetention rebounds the retained job history (<= 0 keeps everything
// — unbounded, test use only).  Ids evicted by retention are answered
// from the journal, as settled ones are, or ErrNotFound from
// Status/Wait/Cancel when there is none or it forgets them
// (ForgetEvicted).
func (s *Scheduler) SetRetention(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retain = n
	s.evictLocked()
}

// evictLocked drops the oldest terminal jobs, full or settled, until
// they are back within the retention bound.  Live (queued/running) jobs
// are never evicted, so under a burst the count can exceed the bound by
// the number of in-flight jobs.  It walks order from the head and stops
// as soon as the bound holds: the cost is the jobs evicted plus the live
// jobs passed over on the way, which keep their place at the head.
func (s *Scheduler) evictLocked() {
	if s.retain <= 0 || len(s.order) <= s.retain {
		return
	}
	i, kept := 0, 0
	// len(s.order)-(i-kept) jobs are retained once i entries are examined.
	for ; i < len(s.order) && len(s.order)-(i-kept) > s.retain; i++ {
		s.orderExamined++
		id := s.order[i]
		j, full := s.jobs[id]
		if full && !j.state.Terminal() {
			s.order[kept] = id
			kept++
			continue
		}
		// The record must be in the journal before it leaves memory, so
		// history survives eviction (and restart): Status and Wait keep
		// answering for evicted ids via the journal.  finishLocked has
		// usually put it there already, and a settled job's is there.  A
		// journal that forgets evicted jobs deletes it instead, at once:
		// the id is not found from now.
		switch {
		case s.forget && s.journal != nil:
			if err := s.journal.Delete(store.JobKey(int64(id))); err != nil {
				s.journalWriteFailedLocked(id, err)
			}
		case full && !j.filed:
			s.persistLocked(j)
		}
		delete(s.jobs, id)
	}
	// order[:kept] are the live jobs passed over; they go back in front of
	// the unexamined tail.
	copy(s.order[i-kept:i], s.order[:kept])
	s.order = s.order[i-kept:]
	s.syncSettledGaugeLocked()
}

// notFound builds the taxonomy error for an unknown job id.
func notFound(id JobID) error {
	return fmt.Errorf("job: no %s: %w", id, errs.ErrNotFound)
}

// Submit registers cmd as a job owned by owner and executed by ex.
// Heavy commands (command.Heavy) are queued to start on a worker once
// they can run, and Submit returns their JobID immediately; cheap
// commands run inline on the caller's goroutine — synchronously, but
// under the same job record, so Status and Wait work uniformly.  An inline command that touches a
// model a running job holds waits its turn, but never past its context:
// once ctx is done the job finalizes Cancelled and Submit returns.  The
// job runs under a context derived from ctx: cancelling ctx, like
// Cancel, cancels the job.  Job-control commands cannot themselves run
// as jobs.  When a per-owner quota is set (SetQuota), an owner at the
// in-flight bound is refused at once with ErrQuota.  Under a context
// from WithOwn, a Heavy job starts no worker at submit: the submitter's
// Own.Take decides where it runs.
func (s *Scheduler) Submit(ctx context.Context, owner string, ex Executor, cmd command.Command) (JobID, error) {
	if cmd == nil || ex == nil {
		return 0, errs.Usage("submit needs a command and an executor")
	}
	cmd = command.Value(cmd)
	if err := command.Submittable(cmd); err != nil {
		return 0, err
	}
	if err := errs.Cancelled(ctx); err != nil {
		return 0, err
	}
	heavy := command.PropsOf(cmd).Has(command.Heavy)
	var own *Own
	if heavy {
		own, _ = ctx.Value(ownKey{}).(*Own)
	}

	jctx, cancel := context.WithCancel(ctx)
	j := &job{
		owner: owner, model: command.ModelOf(cmd), cmd: cmd, ex: ex,
		ctx: jctx, cancel: cancel,
		state: Queued, done: make(chan struct{}),
	}

	s.mu.Lock()
	for s.unread != nil {
		s.mu.Unlock()
		if err := s.rereadJournal(); err != nil {
			cancel()
			return 0, err
		}
		s.mu.Lock()
	}
	if err := s.admitLocked(owner); err != nil {
		if errors.Is(err, ErrQuota) {
			s.mQuotaRejected.Inc()
		}
		s.mu.Unlock()
		cancel()
		return 0, err
	}
	s.mSubmitted.Inc()
	s.next++
	j.id = JobID(s.next)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.live[owner]++
	s.liveTotal++
	s.evictLocked()
	if !s.forget {
		// Journal the submission, for a restart or takeover to find it
		// lost; the terminal write overwrites it.  A journal that forgets
		// evicted jobs is read by no restart, and a live job is answered
		// from memory, so there the terminal write is the only one.
		s.persistLocked(j)
	}
	s.publishLocked(j)
	if heavy {
		j.pooled = true
		s.queue = append(s.queue, j)
		s.syncQueueGaugeLocked()
		if own != nil && own.j == nil {
			// The submitter decides after its reply: run the job or start a
			// worker for it (Own.Take).
			own.s, own.j = s, j
		} else {
			s.dispatchLocked()
		}
		s.mu.Unlock()
		return j.id, nil
	}
	s.mu.Unlock()
	s.runInline(j)
	return j.id, nil
}

// dispatchLocked starts a worker for each queued job that can run now.
// It is called wherever a queued job may have become runnable: a Heavy
// submit, Own.Take's decline, a Release, and the end of a job run on its
// submitter; a worker takes the next job itself when its own ends.
func (s *Scheduler) dispatchLocked() {
	for j := s.nextLocked(); j != nil; j = s.nextLocked() {
		s.wg.Add(1)
		go s.worker(j)
	}
}

// nextLocked starts and returns the first queued job that can run now —
// the scheduler is open, the pool has a free slot and the job's model is
// free — or returns nil when there is none.
func (s *Scheduler) nextLocked() *job {
	if s.closed || s.executing >= s.workers {
		return nil
	}
	j := s.popLocked()
	if j != nil {
		s.startLocked(j)
	}
	return j
}

// worker runs j, then each job that can run when the one before ends,
// and exits when none can.
func (s *Scheduler) worker(j *job) {
	defer s.wg.Done()
	for j != nil {
		s.execute(j)
		j = s.nextLocked()
		s.mu.Unlock()
	}
}

// startLocked marks a job running: it holds its model, and a pooled job
// its pool slot, until execute records the outcome.
func (s *Scheduler) startLocked(j *job) {
	j.state = Running
	s.gRunning.Add(1)
	if j.pooled {
		s.executing++
	}
	if j.model != "" {
		s.busy[j.key()] = holder{id: j.id}
	}
	s.publishLocked(j)
}

// awaitLocked blocks until key is free or ctx is done — a queued job's
// context is, once the job is cancelled — and reports whether key is free.
func (s *Scheduler) awaitLocked(ctx context.Context, key modelKey) bool {
	_, held := s.busy[key]
	if !held {
		return true
	}
	// The cond has no ctx case of its own; wake the wait loop when the
	// context dies so nobody is stuck behind a long solve they no longer
	// want to wait for.
	defer context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})()
	s.waiting++
	for held && ctx.Err() == nil {
		s.cond.Wait()
		_, held = s.busy[key]
	}
	s.waiting--
	return !held
}

// Hold takes owner's model for one synchronous command, exactly as a
// running job holds it, until Release.  A model already held makes a
// Heavy command wait its turn (never past ctx); any other command — the
// kind a connection's reader executes itself — is refused with an error
// naming the holder, outside the taxonomy like define's name collision.
func (s *Scheduler) Hold(ctx context.Context, owner, model string, cmd command.Command) error {
	key := modelKey{owner, model}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, held := s.busy[key]; held {
		if !command.PropsOf(cmd).Has(command.Heavy) {
			return fmt.Errorf("job: model %q is busy (%s): wait for it, or submit the edit", model, h)
		}
		if !s.awaitLocked(ctx, key) {
			return errs.Cancelled(ctx)
		}
	}
	s.busy[key] = holder{cmd: cmd}
	return nil
}

// Release ends a Hold, waking those who may be waiting for the model: a
// worker for a queued job the freed model lets run, and every inline job
// and synchronous solve waiting for a model, and Drain.  With nothing
// queued and nobody waiting it wakes no one — most requests release a
// model nobody wanted.
func (s *Scheduler) Release(owner, model string) {
	s.mu.Lock()
	delete(s.busy, modelKey{owner, model})
	if len(s.queue) > 0 {
		s.wakes++
		s.dispatchLocked()
	}
	if s.waiting > 0 || s.draining > 0 {
		s.wakes++
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// popLocked removes and returns the first queued job whose model is not
// busy, dropping jobs cancelled while they waited.
func (s *Scheduler) popLocked() *job {
	defer s.syncQueueGaugeLocked()
	for i := 0; i < len(s.queue); i++ {
		j := s.queue[i]
		if j.state != Queued {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			i--
			continue
		}
		if _, held := s.busy[j.key()]; j.model == "" || !held {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return j
		}
	}
	return nil
}

// runInline executes a cheap job on the caller's goroutine.  It still
// honours the model lock — an inline model edit queues behind a running
// solve on the same model rather than racing it — and a cancel (or the
// job context's own deadline) delivered while waiting wins: the job
// finalizes Cancelled instead of blocking the submitter past its ctx.
func (s *Scheduler) runInline(j *job) {
	s.mu.Lock()
	if j.state == Queued && j.model != "" {
		// A job cancelled since Submit unlocked is finished, and holds no
		// context to wait with.
		s.awaitLocked(j.ctx, j.key())
	}
	if j.state != Queued { // cancelled (or closed) since Submit or while waiting
		s.mu.Unlock()
		return
	}
	if j.ctx.Err() != nil { // submit ctx died while waiting for the model
		s.cancelQueuedLocked(j)
		s.mu.Unlock()
		return
	}
	s.startLocked(j)
	s.mu.Unlock()
	s.execute(j)
	// The job's end freed its model, which a queued job may wait for.
	s.dispatchLocked()
	s.mu.Unlock()
}

// execute runs a started job's command and stores its terminal state.
// The executor sees the job's context and nothing else; a dispatched job
// is one AUVM operation (the executor counts it in its own auvm.ops), and
// solver flops and machine cycles come back on the typed result.  It
// returns with s.mu held, so the caller picks what runs next in the
// critical section that finished the job.
func (s *Scheduler) execute(j *job) {
	start := time.Now()
	res, err := s.do(j)
	elapsed := time.Since(start)
	j.cancel()

	state := Done
	if err != nil {
		state = Failed
		if errors.Is(err, errs.ErrCancelled) {
			state = Cancelled
		}
	}
	s.hLatency.Get(command.Verb(j.cmd)).Observe(elapsed)
	s.gRunning.Add(-1)
	switch state {
	case Done:
		s.mDone.Inc()
	case Failed:
		s.mFailed.Inc()
	case Cancelled:
		s.mCancelled.Inc()
	}
	s.mu.Lock()
	if j.pooled {
		s.executing--
	}
	j.state = state
	j.res, j.err = res, err
	j.ops = 1
	if sr, ok := res.(*command.SolveResult); ok {
		j.flops = sr.Flops
		j.cycles = sr.Makespan
	}
	// The model is free by the time anyone can see the job finished: what
	// follows a wait on the same model is never refused on its account.
	// finishLocked wakes whoever waited for it.
	delete(s.busy, j.key())
	s.finishLocked(j)
}

// do runs the job's command on its executor.  A panic in there becomes
// the job's error, so it ends an ordinary failed job — recorded,
// journaled, its model lock released — where it would have ended the
// process and every other tenant's work with it.
func (s *Scheduler) do(j *job) (res command.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.mPanics.Inc()
			s.mu.Lock()
			s.logfLocked("job: %s: panic executing %q: %v\n%s", j.id, command.Verb(j.cmd), p, debug.Stack())
			s.mu.Unlock()
			res, err = nil, fmt.Errorf("job: panic executing %q: %v", command.Verb(j.cmd), p)
		}
	}()
	return j.ex.DoHeld(j.ctx, j.cmd)
}

// Status returns a snapshot of one job.  Settled ids, and ids retention
// has evicted from memory, are answered from the journal when one is
// attached.
func (s *Scheduler) Status(id JobID) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if ok {
		snap := s.snapshotLocked(j)
		s.mu.Unlock()
		return snap, nil
	}
	s.mu.Unlock()
	j, err := s.journalLookup(id)
	if err != nil {
		return Snapshot{}, err
	}
	return s.snapshotLocked(j), nil
}

// snapshotLocked copies a job's current state (a job read from the
// journal is the caller's own, and needs no lock).
func (s *Scheduler) snapshotLocked(j *job) Snapshot {
	return Snapshot{
		ID: j.id, Owner: j.owner, Cmd: j.cmd, Model: j.model,
		State: j.state, Result: j.res, Err: j.err,
		Ops: j.ops, Flops: j.flops, Cycles: j.cycles,
	}
}

// Wait blocks until the job reaches a terminal state (or ctx is done)
// and returns the stored result and error — for a Done job, exactly what
// the synchronous command would have returned; for a cancelled job, an
// error wrapping errs.ErrCancelled.  The Wait that delivers a Done job's
// outcome settles it (settleLocked).
func (s *Scheduler) Wait(ctx context.Context, id JobID) (command.Result, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		// A settled or evicted job is already finished: answer its stored
		// outcome from the journal immediately.
		j, err := s.journalLookup(id)
		if err != nil {
			return nil, err
		}
		return j.res, j.err
	}
	done := j.done
	s.mu.Unlock()
	select {
	case <-done:
	case <-ctx.Done():
		return nil, errs.Cancelled(ctx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked(j)
	return j.res, j.err
}

// settleLocked drops a Done job from memory once a Wait has its outcome,
// when its terminal record carries that outcome whole: from then on the
// record is the job's one full copy, and the scheduler keeps only its
// id, in order.  Jobs that failed or were cancelled, a record written
// without its result, a scheduler with no journal and a closed one keep
// the job in memory, as does a Wait whose job has left the map (evicted,
// or replaced by a recovery) since it looked.  Settling after the
// delivery, not at finish, is what keeps the journal unread in a
// submit+wait cycle.
func (s *Scheduler) settleLocked(j *job) {
	if j.state != Done || !j.filed || s.journal == nil || s.closed || s.jobs[j.id] != j {
		return
	}
	delete(s.jobs, j.id)
	s.syncSettledGaugeLocked()
}

// Settled reports whether Wait(id) would return at once: the job is
// terminal in memory, or it has left memory for good — settled or
// evicted to the journal, or forgotten — and is answered from the
// journal or as not found.  An id the scheduler has not issued yet is
// not settled: a Submit racing the caller could issue it and run a job
// under it.
func (s *Scheduler) Settled(id JobID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.state.Terminal()
	}
	return int64(id) <= s.next
}

// Held reports whether owner's model is held right now, by a running job
// or a synchronous command: a Heavy command would wait in Hold for it.
func (s *Scheduler) Held(owner, model string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, held := s.busy[modelKey{owner, model}]
	return held
}

// Cancel stops a job: a queued job is cancelled outright; a running job
// has its context cancelled, which the solver kernels poll, so it
// reaches Cancelled shortly (or Done if completion won the race).  The
// returned state is the job's state after the attempt — Cancelled,
// Running for an in-flight stop, or the terminal state of a job that had
// already finished.
func (s *Scheduler) Cancel(id JobID) (State, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		// A settled or evicted job is terminal; cancelling it reports its
		// state.
		j, err := s.journalLookup(id)
		if err != nil {
			return 0, err
		}
		return j.state, nil
	}
	switch j.state {
	case Queued:
		s.cancelQueuedLocked(j)
		s.mu.Unlock()
		return Cancelled, nil
	case Running:
		cancel := j.cancel
		s.mu.Unlock()
		cancel()
		return Running, nil
	default:
		st := j.state
		s.mu.Unlock()
		return st, nil
	}
}

// cancelQueuedLocked finalizes a job that never ran.
func (s *Scheduler) cancelQueuedLocked(j *job) {
	j.state = Cancelled
	s.mCancelled.Inc()
	j.err = fmt.Errorf("%w: %s cancelled before it started", errs.ErrCancelled, j.id)
	j.cancel()
	s.finishLocked(j)
}

// CancelOwner cancels every live (queued or running) job of one user and
// returns how many it touched — session teardown's bulk cancel.
func (s *Scheduler) CancelOwner(owner string) int {
	s.mu.Lock()
	var running []context.CancelFunc
	n := 0
	for _, j := range s.jobs {
		if j.owner != owner {
			continue
		}
		switch j.state {
		case Queued:
			s.cancelQueuedLocked(j)
			n++
		case Running:
			running = append(running, j.cancel)
			n++
		}
	}
	s.mu.Unlock()
	for _, cancel := range running {
		cancel()
	}
	return n
}

// List returns snapshots of the retained jobs matching f, ascending id.
// A settled job is read from the journal after the scheduler's lock is
// released, and matched then; one evicted meanwhile by a journal that
// forgets evicted jobs is left out.  Settled jobs are terminal, so a
// filter of live states reads none.  The error is the first journal
// read that failed.
func (s *Scheduler) List(f Filter) ([]Snapshot, error) {
	s.mu.Lock()
	out := make([]Snapshot, 0, len(s.order))
	for _, j := range s.jobs {
		if snap := s.snapshotLocked(j); f.match(snap) {
			out = append(out, snap)
		}
	}
	var settled []JobID
	if f.admitsTerminal() {
		settled = s.settledLocked()
	}
	s.mu.Unlock()
	for _, id := range settled {
		j, err := s.journalLookup(id)
		if errors.Is(err, errs.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if snap := s.snapshotLocked(j); f.match(snap) {
			out = append(out, snap)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out, nil
}

// Close shuts the scheduler down: queued jobs are cancelled, running
// jobs have their contexts cancelled, workers finish them and exit, and
// further Submits return ErrClosed.  Close blocks until every worker is
// gone and every job a submitter took (Own.Take) has run; it is
// idempotent.  Then it reads the settled jobs back from the journal
// (unsettle), so they answer from memory once the journal's store has
// closed, as every retained job did before it settled.
func (s *Scheduler) Close() {
	s.closing.Lock()
	defer s.closing.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	var running []context.CancelFunc
	for _, j := range s.jobs {
		switch j.state {
		case Queued:
			s.cancelQueuedLocked(j)
		case Running:
			running = append(running, j.cancel)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, cancel := range running {
		cancel()
	}
	s.wg.Wait()
	s.unsettle()
}

// unsettle holds every settled job in full again, read from its
// journal record; a record that does not read leaves its job settled,
// answering the read's error.  Close calls it once no job can settle.
func (s *Scheduler) unsettle() {
	s.mu.Lock()
	settled := s.settledLocked()
	s.mu.Unlock()
	read := make(map[JobID]*job, len(settled))
	for _, id := range settled {
		if j, err := s.journalLookup(id); err == nil {
			j.filed = true
			read[id] = j
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Only ids still retained are held again (SetRetention may have
	// evicted some meanwhile).
	for _, id := range s.order {
		if _, full := s.jobs[id]; !full && read[id] != nil {
			s.jobs[id] = read[id]
		}
	}
	s.syncSettledGaugeLocked()
}
