package job

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/command"
	"repro/internal/errs"
)

// holdWithJob starts a solve on eng's model "a" that runs until the
// returned release is called, and returns once it holds the model.
func holdWithJob(t *testing.T, s *Scheduler) (id JobID, release func()) {
	t.Helper()
	gate, started := make(chan struct{}), make(chan struct{})
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		close(started)
		<-gate
		return &command.SolveResult{}, nil
	})
	id, err := s.Submit(context.Background(), "eng", ex, solveOn("a"))
	if err != nil {
		t.Fatal(err)
	}
	within(t, "the job's start", func() { <-started })
	return id, func() { close(gate) }
}

// TestHoldRefusesCheapAndWaitsHeavy: a synchronous command on a model a
// job holds is refused by the holder's name when it is cheap and waits
// when it is Heavy; another owner's model of the same name, and another
// model of the same owner, are free.
func TestHoldRefusesCheapAndWaitsHeavy(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	id, release := holdWithJob(t, s)
	ctx := context.Background()

	err := s.Hold(ctx, "eng", "a", command.AddNode{Model: "a"})
	want := `job: model "a" is busy (` + id.String() + ` running): wait for it, or submit the edit`
	if err == nil || err.Error() != want ||
		errors.Is(err, errs.ErrUsage) || errors.Is(err, errs.ErrNotFound) || errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("Hold for a cheap command = %v, want %q outside the taxonomy", err, want)
	}
	for _, free := range []struct{ owner, model string }{{"other", "a"}, {"eng", "b"}} {
		if err := s.Hold(ctx, free.owner, free.model, command.AddNode{Model: free.model}); err != nil {
			t.Fatalf("Hold of %s's %q beside eng's held \"a\": %v", free.owner, free.model, err)
		}
		s.Release(free.owner, free.model)
	}

	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := s.Hold(short, "eng", "a", solveOn("a")); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("Hold for a solve whose context died waiting = %v, want cancelled", err)
	}

	held := make(chan error, 1)
	go func() { held <- s.Hold(ctx, "eng", "a", solveOn("a")) }()
	select {
	case err := <-held:
		t.Fatalf("Hold for a solve returned %v beside the running job", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case err := <-held:
		if err != nil {
			t.Fatalf("Hold for a solve after the job ended: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Hold for a solve still waits 5 s after the job holding its model ended")
	}
	// The synchronous solve is the holder now, and says so.
	err = s.Hold(ctx, "eng", "a", command.AddNode{Model: "a"})
	if err == nil || !strings.Contains(err.Error(), `is busy (a synchronous solve running)`) {
		t.Fatalf("Hold beside a synchronous solve = %v", err)
	}
	s.Release("eng", "a")
	if err := s.Hold(ctx, "eng", "a", command.AddNode{Model: "a"}); err != nil {
		t.Fatalf("Hold of a released model: %v", err)
	}
	s.Release("eng", "a")
}

// TestFinishedJobHasReleasedItsModel: the model is free by the time
// anyone can see the job finished — its terminal event and the closing of
// its done channel share a critical section with the release — so a
// synchronous command that follows a wait is never refused on account of
// the job it waited for.
func TestFinishedJobHasReleasedItsModel(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return &command.SolveResult{}, nil
	})
	heldAtDone := 0
	s.Subscribe("eng", func(snap Snapshot) { // runs under s.mu
		if _, held := s.busy[modelKey{snap.Owner, snap.Model}]; held && snap.State.Terminal() {
			heldAtDone++
		}
	})
	ctx := context.Background()
	for n := 0; n < 200; n++ {
		id, err := s.Submit(ctx, "eng", ex, solveOn("a"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitJob(t, s, id); err != nil {
			t.Fatal(err)
		}
		if err := s.Hold(ctx, "eng", "a", command.Stresses{Model: "a"}); err != nil {
			t.Fatalf("after wait %d: %v", n, err)
		}
		s.Release("eng", "a")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if heldAtDone != 0 {
		t.Errorf("%d of 200 jobs still held their model when their terminal event went out", heldAtDone)
	}
}

// TestReleaseLeavesAnIdlePoolAsleep: releasing a model nobody waits for
// wakes no one, however many requests hold and release; with a job queued
// behind the hold, the release starts a worker once and the job runs.
func TestReleaseLeavesAnIdlePoolAsleep(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	ctx := context.Background()
	wakes := func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.wakes
	}
	before := wakes()
	for n := 0; n < 1000; n++ {
		if err := s.Hold(ctx, "eng", "a", command.Stresses{Model: "a"}); err != nil {
			t.Fatal(err)
		}
		s.Release("eng", "a")
	}
	if got := wakes() - before; got != 0 {
		t.Errorf("1000 uncontended releases woke the pool %d times, want 0", got)
	}

	if err := s.Hold(ctx, "eng", "a", command.Stresses{Model: "a"}); err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(ctx, "eng", quickExec, solveOn("a"))
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := s.Status(id); snap.State != Queued {
		t.Fatalf("job beside a synchronous hold is %v, want queued", snap.State)
	}
	s.Release("eng", "a")
	waitState(t, s, id, Done)
	if got := wakes() - before; got != 1 {
		t.Errorf("the release a job waited for woke %d times, want 1", got)
	}
}
