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
// DoHeld is invoked on a worker goroutine (inline on the submitter's
// goroutine for cheap commands) with the command's model already held
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
	id     JobID
	owner  string
	model  string
	cmd    command.Command
	ex     Executor
	ctx    context.Context
	cancel context.CancelFunc

	// attempt is the auto-resubmission generation (0 = user-submitted),
	// immutable after submit like the identity fields above.
	attempt int

	// Guarded by Scheduler.mu.
	state              State
	res                command.Result
	err                error
	ops, flops, cycles int64
	// lost marks a record recovered as "lost to restart"; resubmitted
	// marks a lost record ResubmitLost has already requeued, so a
	// crash-restart loop never requeues the same record twice.
	lost, resubmitted bool
	// journaled records that finishLocked's write of the terminal record
	// reached the journal, so retention eviction has nothing to flush.  It
	// stays false after a failed write, with no journal attached, and on a
	// record recovered from a journal (lost, or resubmitted later): those
	// are written at eviction.
	journaled bool
	// done is closed exactly once, when the job reaches a terminal
	// state.
	done chan struct{}
}

func (j *job) key() modelKey { return modelKey{j.owner, j.model} }

// Scheduler is the multi-tenant job service: a bounded worker pool over
// a queue of submitted commands, with per-model serialization and full
// job bookkeeping.  All methods are safe for concurrent use by any
// number of sessions.
type Scheduler struct {
	workers int

	mu sync.Mutex
	// cond is where everyone but an idle worker waits for a change of
	// scheduler state: model-lock waiters (awaitLocked: inline jobs and
	// synchronous solves), quota-queued submitters (admitLocked) and
	// Drain.  Each waiter re-checks its own condition, so it is broadcast
	// at every change that may satisfy one — a finish, a Release with a
	// model waiter, a quota change, Close, a waiter's dead context.
	cond *sync.Cond
	// work is where idle workers wait for a queued job to become
	// runnable.  One such event makes one job runnable, so it is
	// signalled once per event — a Heavy submit, and a finish or Release
	// with jobs queued — and broadcast only by Close.
	work    *sync.Cond
	started bool
	closed  bool
	next    int64
	jobs    map[JobID]*job
	// order remembers submission order for retention eviction: a queue
	// evictLocked consumes from the head.
	order []JobID
	// orderExamined counts the entries of order evictLocked has looked at
	// — what the scaling test reads in place of a clock.
	orderExamined int64
	// retain bounds the job records kept: when the map outgrows it, the
	// oldest terminal jobs are evicted (live jobs never are).
	retain int
	queue  []*job
	// busy holds the models currently held, by a running job or by a
	// synchronous command (Hold); a queued job whose model is busy is
	// skipped until it frees.
	busy map[modelKey]holder
	// waiting counts the goroutines blocked on cond for a model — inline
	// jobs and synchronous solves; wakes counts the wake-ups Release made,
	// a work signal for the queue and a cond broadcast for them.
	waiting int
	wakes   int64
	// parked counts the workers waiting on work; idleWakes counts the
	// times one woke from it and found nothing to run.
	parked    int
	idleWakes int64
	// live counts each owner's queued-or-running jobs; liveTotal is
	// their sum.  quota bounds live per owner when positive, with policy
	// choosing reject-vs-queue at the bound (see tenant.go).
	live      map[string]int
	liveTotal int
	quota     int
	policy    QuotaPolicy
	// subs are the job-event subscribers, keyed by owner and then by
	// registration id.
	subs    map[string]map[int]func(Snapshot)
	subNext int
	// journal, when non-nil, persists job records through the system's
	// store (see journal.go): queued at submit (unless forget is set),
	// terminal at finish, and flushed before retention eviction.
	journal store.Store
	// forget makes retention eviction delete the evicted job's record
	// instead (ForgetEvicted); forgotten holds those deletes until the
	// next journal write carries them.
	forget    bool
	forgotten []store.Op
	// rec is the record recordLocked encodes from, and recBuf the buffer
	// it encodes into; the store copies what it is given, and rec is
	// cleared after each encode.
	rec    journalRecord
	recBuf []byte
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
}

// DefaultRetainedJobs bounds the job history a scheduler keeps by
// default — enough for any interactive or test workload while keeping a
// long-lived multi-tenant service's memory flat.
const DefaultRetainedJobs = 4096

// NewScheduler returns a scheduler whose pool is bounded at workers
// goroutines (<= 0 selects GOMAXPROCS).  Worker goroutines start lazily
// on the first heavy submission, so a scheduler that only ever sees
// synchronous traffic costs nothing.
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
	s.work = sync.NewCond(&s.mu)
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
}

// syncQueueGaugeLocked publishes the current heavy-queue length.  Jobs
// cancelled while queued stay in the slice until a worker pops past
// them, so the gauge can briefly overcount by the cancelled stragglers.
func (s *Scheduler) syncQueueGaugeLocked() {
	s.gQueueDepth.Set(int64(len(s.queue)))
}

// SetLogf installs the scheduler's diagnostic log sink (the daemon's
// logger).  Only journal failures and resubmission activity log; nil
// silences them.
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
// from the journal, or ErrNotFound from Status/Wait/Cancel when there is
// none or it forgets them (ForgetEvicted).
func (s *Scheduler) SetRetention(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retain = n
	s.evictLocked()
	if len(s.forgotten) > 0 && s.journal.Batch(s.forgotten) == nil {
		s.forgotten = s.forgotten[:0]
	}
}

// evictLocked drops the oldest terminal job records until the map is
// back within the retention bound.  Live (queued/running) jobs are
// never evicted, so under a burst the map can exceed the bound by the
// number of in-flight jobs.  It walks order from the head and stops as
// soon as the bound holds: the cost is the records evicted plus the live
// jobs (and ids no longer in the map) passed over on the way, which keep
// their place at the head.
func (s *Scheduler) evictLocked() {
	if s.retain <= 0 || len(s.jobs) <= s.retain {
		return
	}
	i, kept := 0, 0
	for ; i < len(s.order) && len(s.jobs) > s.retain; i++ {
		s.orderExamined++
		id := s.order[i]
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		if !j.state.Terminal() {
			s.order[kept] = id
			kept++
			continue
		}
		// The record must be in the journal before it leaves memory, so
		// history survives eviction (and restart): Status and Wait keep
		// answering for evicted ids via the journal.  finishLocked has
		// usually put it there already.  A journal that forgets evicted
		// jobs is told to delete it instead, in the write that follows.
		switch {
		case s.forget:
			s.forgotten = append(s.forgotten, store.Del(store.JobKey(int64(id))))
		case !j.journaled:
			s.persistLocked(j)
		}
		delete(s.jobs, id)
	}
	// order[:kept] are the live jobs passed over; they go back in front of
	// the unexamined tail.
	copy(s.order[i-kept:i], s.order[:kept])
	s.order = s.order[i-kept:]
}

// notFound builds the taxonomy error for an unknown job id.
func notFound(id JobID) error {
	return fmt.Errorf("job: no %s: %w", id, errs.ErrNotFound)
}

// Submit registers cmd as a job owned by owner and executed by ex.
// Heavy commands (command.Heavy) are enqueued for the worker pool and Submit
// returns their JobID immediately; cheap commands run inline on the
// caller's goroutine — synchronously, but under the same job record, so
// Status and Wait work uniformly.  An inline command that touches a
// model a running job holds waits its turn, but never past its context:
// once ctx is done the job finalizes Cancelled and Submit returns.  The
// job runs under a context derived from ctx: cancelling ctx, like
// Cancel, cancels the job.  Job-control commands cannot themselves run
// as jobs.  When a per-owner quota is set (SetQuota), an owner at the
// in-flight bound is rejected with ErrQuota or blocked until a slot
// frees, by policy.
func (s *Scheduler) Submit(ctx context.Context, owner string, ex Executor, cmd command.Command) (JobID, error) {
	return s.submit(ctx, owner, ex, cmd, 0)
}

// submit is Submit with the resubmission generation threaded through —
// ResubmitLost requeues lost jobs at attempt n+1.
func (s *Scheduler) submit(ctx context.Context, owner string, ex Executor, cmd command.Command, attempt int) (JobID, error) {
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

	jctx, cancel := context.WithCancel(ctx)
	j := &job{
		owner: owner, model: ModelOf(cmd), cmd: cmd, ex: ex,
		ctx: jctx, cancel: cancel, attempt: attempt,
		state: Queued, done: make(chan struct{}),
	}

	s.mu.Lock()
	if err := s.admitLocked(ctx, owner); err != nil {
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
	if command.PropsOf(cmd).Has(command.Heavy) {
		s.startWorkersLocked()
		s.queue = append(s.queue, j)
		s.syncQueueGaugeLocked()
		s.work.Signal()
		s.mu.Unlock()
		return j.id, nil
	}
	s.mu.Unlock()
	s.runInline(j)
	return j.id, nil
}

// startWorkersLocked launches the pool on first use.
func (s *Scheduler) startWorkersLocked() {
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// worker is one pool goroutine: pop a runnable job, execute it, release
// its model, repeat until the scheduler closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *job
		for woke := false; ; woke = true {
			if j = s.popLocked(); j != nil || s.closed {
				break
			}
			if woke {
				s.idleWakes++
			}
			s.parked++
			s.work.Wait()
			s.parked--
		}
		if j == nil {
			s.mu.Unlock()
			return
		}
		s.runLocked(j)
	}
}

// runLocked runs a queued job the caller has chosen, holding the job's
// model for the duration: mark it running and execute it unlocked;
// execute releases the model as it records the outcome.  Called with
// s.mu held; returns with it released.
func (s *Scheduler) runLocked(j *job) {
	j.state = Running
	s.gRunning.Add(1)
	if j.model != "" {
		s.busy[j.key()] = holder{id: j.id}
	}
	s.publishLocked(j)
	s.mu.Unlock()

	s.execute(j)
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

// Release ends a Hold, waking those who may be waiting for the model: one
// worker when jobs are queued (the freed model makes at most one of them
// runnable), and every inline job and synchronous solve waiting for a
// model.  An idle pool sleeps on — most requests release a model nobody
// wanted.
func (s *Scheduler) Release(owner, model string) {
	s.mu.Lock()
	delete(s.busy, modelKey{owner, model})
	if len(s.queue) > 0 {
		s.wakes++
		s.work.Signal()
	}
	if s.waiting > 0 {
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
	if j.model != "" {
		s.awaitLocked(j.ctx, j.key())
	}
	if j.state != Queued { // cancelled (or closed) while waiting
		s.mu.Unlock()
		return
	}
	if j.ctx.Err() != nil { // submit ctx died while waiting for the model
		s.cancelQueuedLocked(j)
		s.mu.Unlock()
		return
	}
	s.runLocked(j)
}

// execute runs the job's command and stores its terminal state.  The
// executor sees the job's context and nothing else; a dispatched job is
// one AUVM operation (the executor counts it in its own auvm.ops), and
// solver flops and machine cycles come back on the typed result.
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
	close(j.done)
	s.finishLocked(j)
	s.mu.Unlock()
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

// Status returns a snapshot of one job.  Ids retention has evicted
// from memory are answered from the journal when one is attached.
func (s *Scheduler) Status(id JobID) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if ok {
		snap := s.snapshotLocked(j)
		s.mu.Unlock()
		return snap, nil
	}
	s.mu.Unlock()
	if j, ok := s.journalLookup(id); ok {
		return s.snapshotLocked(j), nil
	}
	return Snapshot{}, notFound(id)
}

// snapshotLocked copies a job's current state.
func (s *Scheduler) snapshotLocked(j *job) Snapshot {
	return Snapshot{
		ID: j.id, Owner: j.owner, Cmd: j.cmd, Model: j.model,
		State: j.state, Result: j.res, Err: j.err,
		Ops: j.ops, Flops: j.flops, Cycles: j.cycles,
		Attempt: j.attempt,
	}
}

// Wait blocks until the job reaches a terminal state (or ctx is done)
// and returns the stored result and error — for a Done job, exactly what
// the synchronous command would have returned; for a cancelled job, an
// error wrapping errs.ErrCancelled.
func (s *Scheduler) Wait(ctx context.Context, id JobID) (command.Result, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		// An evicted terminal job is already finished: answer its stored
		// outcome from the journal immediately.
		if j, ok := s.journalLookup(id); ok {
			return j.res, j.err
		}
		return nil, notFound(id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, errs.Cancelled(ctx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.res, j.err
}

// Settled reports whether Wait(id) would return at once: the job is
// terminal in memory, or it has left memory for good — evicted to the
// journal, or forgotten — and is answered from the journal or as not
// found.  An id the scheduler has not issued yet is not settled: a
// Submit racing the caller could issue it and run a job under it.
func (s *Scheduler) Settled(id JobID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.state.Terminal()
	}
	return int64(id) <= s.next
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
		// An evicted job is terminal; cancelling it reports its state.
		if j, ok := s.journalLookup(id); ok {
			return j.state, nil
		}
		return 0, notFound(id)
	}
	switch j.state {
	case Queued:
		s.cancelQueuedLocked(j)
		s.mu.Unlock()
		return Cancelled, nil
	case Running:
		s.mu.Unlock()
		j.cancel()
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
	close(j.done)
	j.cancel()
	s.finishLocked(j)
}

// CancelOwner cancels every live (queued or running) job of one user and
// returns how many it touched — session teardown's bulk cancel.
func (s *Scheduler) CancelOwner(owner string) int {
	s.mu.Lock()
	var running []*job
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
			running = append(running, j)
			n++
		}
	}
	s.mu.Unlock()
	for _, j := range running {
		j.cancel()
	}
	return n
}

// List returns snapshots of the jobs matching f, ascending id.
func (s *Scheduler) List(f Filter) []Snapshot {
	s.mu.Lock()
	out := make([]Snapshot, 0, len(s.jobs))
	for _, j := range s.jobs {
		if snap := s.snapshotLocked(j); f.match(snap) {
			out = append(out, snap)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Close shuts the scheduler down: queued jobs are cancelled, running
// jobs have their contexts cancelled, workers drain and exit, and
// further Submits return ErrClosed.  Close blocks until the pool is
// gone; it is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	var running []*job
	for _, j := range s.jobs {
		switch j.state {
		case Queued:
			s.cancelQueuedLocked(j)
		case Running:
			running = append(running, j)
		}
	}
	s.cond.Broadcast()
	s.work.Broadcast()
	s.mu.Unlock()
	for _, j := range running {
		j.cancel()
	}
	s.wg.Wait()
}
