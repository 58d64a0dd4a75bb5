package job

import (
	"context"
	"testing"

	"repro/internal/command"
)

// submitOwn submits cmd under WithOwn(o) and fails the test on an error.
func submitOwn(t *testing.T, s *Scheduler, o *Own, ex Executor, cmd command.Command) JobID {
	t.Helper()
	id, err := s.Submit(WithOwn(context.Background(), o), "eng", ex, cmd)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// quickExec finishes every job at once.
var quickExec = execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
	return &command.SolveResult{}, nil
})

// TestOwnRunsOnTheSubmitter: on an idle scheduler, a job submitted
// under WithOwn is the submitter's to run — Take says so, Run finishes it
// on the submitter's goroutine — and no worker starts, for it or for its
// finish.
func TestOwnRunsOnTheSubmitter(t *testing.T) {
	noWorkers(t)
	s := NewScheduler(2)
	defer s.Close()
	var o Own
	id := submitOwn(t, s, &o, quickExec, solveOn("a"))
	if !o.Take() {
		t.Fatal("Take refused a job submitted to an idle pool")
	}
	if snap, _ := s.Status(id); snap.State != Running {
		t.Errorf("job after Take is %v, want running", snap.State)
	}
	o.Run()
	if snap, _ := s.Status(id); snap.State != Done {
		t.Errorf("job after Run is %v, want done", snap.State)
	}
	if n := workerGoroutines(); n != 0 {
		t.Errorf("a job run by its submitter left %d workers, want 0", n)
	}
	if o.Take() {
		t.Error("Take of an emptied Own reported a job")
	}
}

// TestOwnDeclinedWakesAWorker: with a job executing on a worker the pool
// is not idle, so Take refuses the submitter's job and starts a worker
// for it, which runs it beside the first.  Dropping that dispatch leaves
// the job queued until the first job ends.
func TestOwnDeclinedWakesAWorker(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	started, gate := make(chan struct{}, 1), make(chan struct{})
	ex := blockingExec(started, gate)
	first, err := s.Submit(context.Background(), "eng", ex, solveOn("a"))
	if err != nil {
		t.Fatal(err)
	}
	within(t, "the job's start", func() { <-started })
	var o Own
	id := submitOwn(t, s, &o, quickExec, solveOn("b"))
	if o.Take() {
		t.Fatal("Take gave the submitter a job while another executes")
	}
	waitState(t, s, id, Done)
	if snap, _ := s.Status(first); snap.State != Running {
		t.Errorf("first job is %v, want still running", snap.State)
	}
	close(gate)
	waitState(t, s, first, Done)
}

// TestOwnTakesAPoolSlot: a job its submitter runs counts against the
// pool bound.  With one worker, a second job submitted while the first
// runs on its submitter stays queued — the pool is full, so its submit
// starts no worker — and runs when the first ends, its Run dispatching.
func TestOwnTakesAPoolSlot(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	started, gate := make(chan struct{}, 1), make(chan struct{})
	ex := blockingExec(started, gate)
	var o Own
	first := submitOwn(t, s, &o, ex, solveOn("a"))
	if !o.Take() {
		t.Fatal("Take refused a job submitted to an idle pool")
	}
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		o.Run()
	}()
	within(t, "the job's start", func() { <-started })
	second, err := s.Submit(context.Background(), "eng", ex, solveOn("b"))
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := s.Status(second); snap.State != Queued {
		t.Errorf("second job is %v while the submitter's job holds the pool's one slot, want queued", snap.State)
	}
	close(gate)
	within(t, "the submitter's Run", func() { <-ran })
	waitState(t, s, first, Done)
	waitState(t, s, second, Done)
}

// TestOwnDeclinesBehindAQueue: a job with another queued ahead of it,
// or whose model is held, is not the submitter's: Take refuses it and
// it runs on a worker once it can.
func TestOwnDeclinesBehindAQueue(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	if err := s.Hold(context.Background(), "eng", "a", solveOn("a")); err != nil {
		t.Fatal(err)
	}
	var o Own
	held := submitOwn(t, s, &o, quickExec, solveOn("a"))
	if o.Take() {
		t.Fatal("Take gave the submitter a job whose model is held")
	}
	behind := submitOwn(t, s, &o, quickExec, solveOn("b"))
	if o.Take() {
		t.Fatal("Take gave the submitter a job queued behind another")
	}
	waitState(t, s, behind, Done)
	s.Release("eng", "a")
	waitState(t, s, held, Done)
}
