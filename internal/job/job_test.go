package job

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/command"
	"repro/internal/errs"
)

// execFunc adapts a function to Executor.
type execFunc func(ctx context.Context, cmd command.Command) (command.Result, error)

func (f execFunc) DoHeld(ctx context.Context, cmd command.Command) (command.Result, error) {
	return f(ctx, cmd)
}

// list is s.List(f), failing the test on a journal read error.
func list(t testing.TB, s *Scheduler, f Filter) []Snapshot {
	t.Helper()
	snaps, err := s.List(f)
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// solveOn is the canonical heavy command on a model.
func solveOn(model string) command.Command { return command.Solve{Model: model, Set: "l"} }

// patience bounds every wait in this package's tests: one that runs out
// fails its test by what it waited for, where a hang would hold the whole
// package until go test's -timeout.
const patience = 10 * time.Second

// within runs wait on a goroutine of its own and fails the test, naming
// what it waited for, unless wait returns within patience.
func within(t testing.TB, what string, wait func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		wait()
	}()
	select {
	case <-done:
	case <-time.After(patience):
		t.Fatalf("still waiting for %s after %v", what, patience)
	}
}

// waitJob is s.Wait of id under patience.
func waitJob(t testing.TB, s *Scheduler, id JobID) (res command.Result, err error) {
	t.Helper()
	within(t, "the wait for "+id.String(), func() { res, err = s.Wait(context.Background(), id) })
	return res, err
}

// workerGoroutines counts the goroutines running Scheduler.worker, in
// every scheduler of the process.
func workerGoroutines() int {
	buf := make([]byte, 64<<10)
	for runtime.Stack(buf, true) == len(buf) {
		buf = make([]byte, 2*len(buf))
	}
	return bytes.Count(buf, []byte("job.(*Scheduler).worker("))
}

// noWorkers waits until no worker goroutine is left.
func noWorkers(t testing.TB) {
	t.Helper()
	within(t, "every worker to exit", func() {
		for workerGoroutines() > 0 {
			time.Sleep(time.Millisecond)
		}
	})
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, s *Scheduler, id JobID, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	snap, _ := s.Status(id)
	t.Fatalf("job %s never reached %v (stuck at %v)", id, want, snap.State)
}

func TestSubmitWaitDone(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	want := &command.SolveResult{Model: "a", Set: "l", Backend: "cholesky"}
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return want, nil
	})
	id, err := s.Submit(context.Background(), "eng", ex, solveOn("a"))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("first id = %v, want job-1", id)
	}
	waitState(t, s, id, Done)
	res, err := waitJob(t, s, id)
	if err != nil {
		t.Fatal(err)
	}
	if res != command.Result(want) {
		t.Errorf("Wait result = %v, want the stored one", res)
	}
	snap, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Done || snap.Owner != "eng" || snap.Model != "a" {
		t.Errorf("snapshot = %+v", snap)
	}
	// Each submit starts the worker its job runs on: the next finds the
	// first's worker gone.
	noWorkers(t)
	id, err = s.Submit(context.Background(), "eng", ex, solveOn("a"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, Done)
}

// TestWorkersExitWithNothingRunnable: a worker exists only while it has
// a job.  Jobs on four models start one worker each, and a fifth waits
// for a free slot; once the four end, a worker runs the fifth, and with a
// job still queued behind a held model none is left.  The release starts
// one for that job, which exits after it, and a worker whose job Close
// cancels is gone once Close returns.
func TestWorkersExitWithNothingRunnable(t *testing.T) {
	noWorkers(t)
	s := NewScheduler(4)
	defer s.Close()
	ctx := context.Background()
	if err := s.Hold(ctx, "eng", "q", solveOn("q")); err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(ctx, "eng", quickExec, solveOn("q"))
	if err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}, 4), make(chan struct{})
	var ids []JobID
	for i := 0; i < 4; i++ {
		id, err := s.Submit(ctx, "eng", blockingExec(started, release), solveOn(fmt.Sprintf("m%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 4; i++ {
		within(t, "four starts", func() { <-started })
	}
	fifth, err := s.Submit(ctx, "eng", quickExec, solveOn("m4"))
	if err != nil {
		t.Fatal(err)
	}
	if n := workerGoroutines(); n != 4 {
		t.Errorf("four running jobs and one queued have %d workers, want 4", n)
	}
	close(release)
	waitState(t, s, fifth, Done) // taken by a worker whose job ended
	for _, id := range ids {
		if _, err := waitJob(t, s, id); err != nil {
			t.Fatal(err)
		}
	}
	noWorkers(t)
	if snap, _ := s.Status(queued); snap.State != Queued {
		t.Fatalf("job behind the held model is %v, want queued", snap.State)
	}
	s.Release("eng", "q")
	if _, err := waitJob(t, s, queued); err != nil {
		t.Fatal(err)
	}
	noWorkers(t)

	cancelled, err := s.Submit(ctx, "eng", blockingExec(started, nil), solveOn("c"))
	if err != nil {
		t.Fatal(err)
	}
	within(t, "the last job's start", func() { <-started })
	s.Close()
	if snap, _ := s.Status(cancelled); snap.State != Cancelled {
		t.Errorf("job running at Close is %v, want cancelled", snap.State)
	}
	noWorkers(t)
}

func TestCheapCommandRunsInline(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	var gid int64
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		atomic.StoreInt64(&gid, 1)
		return &command.ListResult{What: command.ListDB}, nil
	})
	id, err := s.Submit(context.Background(), "eng", ex, command.List{What: command.ListDB})
	if err != nil {
		t.Fatal(err)
	}
	// Inline: terminal before Submit returns, no worker involved.
	if atomic.LoadInt64(&gid) != 1 {
		t.Error("cheap command did not run before Submit returned")
	}
	snap, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Done {
		t.Errorf("inline job state = %v, want done", snap.State)
	}
}

func TestFailureState(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	boom := errors.New("boom")
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return nil, boom
	})
	id, err := s.Submit(context.Background(), "eng", ex, solveOn("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitJob(t, s, id); !errors.Is(err, boom) {
		t.Errorf("Wait error = %v, want boom", err)
	}
	snap, _ := s.Status(id)
	if snap.State != Failed {
		t.Errorf("state = %v, want failed", snap.State)
	}
}

func TestCancelRunning(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	started := make(chan struct{})
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		close(started)
		<-ctx.Done()
		return nil, errs.Cancelled(ctx)
	})
	id, err := s.Submit(context.Background(), "eng", ex, solveOn("a"))
	if err != nil {
		t.Fatal(err)
	}
	within(t, "the job's start", func() { <-started })
	if st, err := s.Cancel(id); err != nil || st != Running {
		t.Errorf("Cancel(running) = %v, %v", st, err)
	}
	if _, err := waitJob(t, s, id); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("Wait after cancel = %v, want ErrCancelled", err)
	}
	snap, _ := s.Status(id)
	if snap.State != Cancelled {
		t.Errorf("state = %v, want cancelled", snap.State)
	}
}

func TestCancelQueued(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	release := make(chan struct{})
	// Buffered: the first job's start must not be lost when the worker
	// gets there before this goroutine waits on it.
	started := make(chan struct{}, 1)
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return &command.SolveResult{}, nil
	})
	// Fill the single worker, then queue a second job and cancel it.
	first, err := s.Submit(context.Background(), "eng", ex, solveOn("a"))
	if err != nil {
		t.Fatal(err)
	}
	within(t, "the job's start", func() { <-started })
	second, err := s.Submit(context.Background(), "eng", ex, solveOn("b"))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Cancel(second); err != nil || st != Cancelled {
		t.Fatalf("Cancel(queued) = %v, %v", st, err)
	}
	if _, err := waitJob(t, s, second); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("Wait(cancelled-queued) = %v, want ErrCancelled", err)
	}
	close(release)
	if _, err := waitJob(t, s, first); err != nil {
		t.Fatal(err)
	}
	// Cancel of a finished job reports its terminal state.
	if st, err := s.Cancel(first); err != nil || st != Done {
		t.Errorf("Cancel(done) = %v, %v", st, err)
	}
}

func TestSubmitCtxCancelsJob(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	started := make(chan struct{})
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		close(started)
		<-ctx.Done()
		return nil, errs.Cancelled(ctx)
	})
	ctx, cancel := context.WithCancel(context.Background())
	id, err := s.Submit(ctx, "eng", ex, solveOn("a"))
	if err != nil {
		t.Fatal(err)
	}
	within(t, "the job's start", func() { <-started })
	cancel() // cancellation rides the submit context
	if _, err := waitJob(t, s, id); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("Wait = %v, want ErrCancelled", err)
	}
}

// TestPerModelSerialization proves the scheduler's locking story: jobs
// on one model never overlap, while jobs on different models do.
func TestPerModelSerialization(t *testing.T) {
	s := NewScheduler(4)
	defer s.Close()

	var mu sync.Mutex
	cur := map[string]int{}
	overlapped := false
	aRunning := make(chan struct{}, 1)
	bRunning := make(chan struct{}, 1)

	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		model := command.ModelOf(cmd)
		mu.Lock()
		cur[model]++
		if cur[model] > 1 {
			overlapped = true
		}
		mu.Unlock()
		// Rendezvous across models: a and b must both be live at once.
		switch model {
		case "a":
			select {
			case aRunning <- struct{}{}:
			default:
			}
			<-bRunning
		case "b":
			select {
			case bRunning <- struct{}{}:
			default:
			}
			<-aRunning
		}
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		cur[model]--
		mu.Unlock()
		return &command.SolveResult{}, nil
	})

	var ids []JobID
	for _, m := range []string{"a", "b", "a", "b"} {
		id, err := s.Submit(context.Background(), "eng", ex, solveOn(m))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := waitJob(t, s, id); err != nil {
			t.Fatal(err)
		}
	}
	if overlapped {
		t.Error("two jobs on one model ran concurrently")
	}
}

func TestWorkerPoolBound(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	release := make(chan struct{})
	var running int32
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		atomic.AddInt32(&running, 1)
		<-release
		atomic.AddInt32(&running, -1)
		return &command.SolveResult{}, nil
	})
	var ids []JobID
	for i := 0; i < 4; i++ {
		id, err := s.Submit(context.Background(), "eng", ex, solveOn(fmt.Sprintf("m%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// With 4 runnable distinct-model jobs and 2 workers, exactly 2 run.
	deadline := time.Now().Add(2 * time.Second)
	for atomic.LoadInt32(&running) != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // give a third job the chance to (wrongly) start
	if n := atomic.LoadInt32(&running); n != 2 {
		t.Errorf("running = %d, want exactly the 2-worker bound", n)
	}
	close(release)
	for _, id := range ids {
		if _, err := waitJob(t, s, id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestListFilter(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	ok := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return &command.SolveResult{}, nil
	})
	bad := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return nil, errors.New("boom")
	})
	a, _ := s.Submit(context.Background(), "alice", ok, solveOn("a"))
	b, _ := s.Submit(context.Background(), "bob", bad, solveOn("b"))
	for _, id := range []JobID{a, b} {
		waitJob(t, s, id)
	}
	if got := list(t, s, Filter{}); len(got) != 2 || got[0].ID != a || got[1].ID != b {
		t.Errorf("List(all) = %+v", got)
	}
	if got := list(t, s, Filter{Owner: "alice"}); len(got) != 1 || got[0].ID != a {
		t.Errorf("List(alice) = %+v", got)
	}
	if got := list(t, s, Filter{States: []State{Failed}}); len(got) != 1 || got[0].ID != b {
		t.Errorf("List(failed) = %+v", got)
	}
}

func TestCancelOwner(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &command.SolveResult{}, nil
		case <-ctx.Done():
			return nil, errs.Cancelled(ctx)
		}
	})
	r, _ := s.Submit(context.Background(), "alice", ex, solveOn("a"))
	within(t, "the job's start", func() { <-started })
	q, _ := s.Submit(context.Background(), "alice", ex, solveOn("b"))
	other, _ := s.Submit(context.Background(), "bob", ex, solveOn("c"))
	if n := s.CancelOwner("alice"); n != 2 {
		t.Errorf("CancelOwner = %d, want 2", n)
	}
	for _, id := range []JobID{r, q} {
		if _, err := waitJob(t, s, id); !errors.Is(err, errs.ErrCancelled) {
			t.Errorf("alice job %v after CancelOwner: %v", id, err)
		}
	}
	close(release)
	if _, err := waitJob(t, s, other); err != nil {
		t.Errorf("bob's job was cancelled too: %v", err)
	}
}

func TestWaitHonoursContext(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	release := make(chan struct{})
	defer close(release)
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		<-release
		return &command.SolveResult{}, nil
	})
	id, _ := s.Submit(context.Background(), "eng", ex, solveOn("a"))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Wait(ctx, id); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("Wait under dead ctx = %v, want ErrCancelled", err)
	}
}

func TestJobControlVerbsRejected(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return nil, nil
	})
	for _, cmd := range []command.Command{
		command.Submit{Cmd: command.List{What: command.ListDB}},
		command.Status{ID: 1}, command.Wait{ID: 1},
		command.Cancel{ID: 1}, command.Jobs{}, command.Quit{},
	} {
		if _, err := s.Submit(context.Background(), "eng", ex, cmd); !errors.Is(err, errs.ErrUsage) {
			t.Errorf("Submit(%T) = %v, want ErrUsage", cmd, err)
		}
	}
}

// TestNotAJobRefusalReadsTheSameEverywhere: the same mistake — running
// a job-control verb (or quit) under submit — is refused by the parser
// locally, by the wire decoder on the server, and by the scheduler
// in-process.  All three must say the identical thing.
func TestNotAJobRefusalReadsTheSameEverywhere(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return nil, nil
	})
	for _, inner := range []command.Command{
		command.Submit{Cmd: command.List{What: command.ListDB}},
		command.Status{ID: 1}, command.Wait{ID: 1},
		command.Cancel{ID: 1}, command.Jobs{}, command.Quit{},
	} {
		want := fmt.Sprintf("usage: %q cannot run as a job", command.Verb(inner))
		_, parseErr := command.Parse("submit " + inner.String())
		// MarshalCommand(Submit{inner}) is exactly the frame a client
		// that skipped the parser would send.
		frame, err := command.MarshalCommand(command.Submit{Cmd: inner})
		if err != nil {
			t.Fatal(err)
		}
		_, wireErr := command.UnmarshalCommand(frame)
		_, schedErr := s.Submit(context.Background(), "eng", ex, inner)
		for where, err := range map[string]error{"parser": parseErr, "wire": wireErr, "scheduler": schedErr} {
			if err == nil || err.Error() != want {
				t.Errorf("%s refuses %q with %q, want %q", where, inner, err, want)
			}
		}
	}
}

func TestCloseCancelsAndRejects(t *testing.T) {
	s := NewScheduler(1)
	release := make(chan struct{})
	started := make(chan struct{})
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		close(started)
		select {
		case <-release:
			return &command.SolveResult{}, nil
		case <-ctx.Done():
			return nil, errs.Cancelled(ctx)
		}
	})
	r, _ := s.Submit(context.Background(), "eng", ex, solveOn("a"))
	within(t, "the first job's start", func() { <-started })
	q, _ := s.Submit(context.Background(), "eng", ex, solveOn("b"))
	s.Close()
	for _, id := range []JobID{r, q} {
		snap, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != Cancelled {
			t.Errorf("job %v after Close: %v", id, snap.State)
		}
	}
	if _, err := s.Submit(context.Background(), "eng", ex, solveOn("c")); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
	close(release)
}

func TestStatusUnknownJob(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	if _, err := s.Status(99); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("Status(99) = %v, want ErrNotFound", err)
	}
	if _, err := waitJob(t, s, 99); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("Wait(99) = %v, want ErrNotFound", err)
	}
	if _, err := s.Cancel(99); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("Cancel(99) = %v, want ErrNotFound", err)
	}
}

func TestStateRoundTrip(t *testing.T) {
	for _, st := range []State{Queued, Running, Done, Failed, Cancelled} {
		got, err := ParseState(st.String())
		if err != nil || got != st {
			t.Errorf("ParseState(%q) = %v, %v", st, got, err)
		}
	}
	if _, err := ParseState("limbo"); !errors.Is(err, errs.ErrUsage) {
		t.Errorf("ParseState(limbo) = %v, want ErrUsage", err)
	}
	if !Done.Terminal() || Running.Terminal() || Queued.Terminal() {
		t.Error("Terminal misclassifies states")
	}
}

func TestModelOfAndHeavy(t *testing.T) {
	cases := []struct {
		cmd   command.Command
		model string
		heavy bool
	}{
		{command.Solve{Model: "m", Set: "l"}, "m", true},
		{&command.Solve{Model: "m", Set: "l"}, "m", true}, // pointer spelling
		{command.GenerateGrid{Name: "g"}, "g", false},
		{command.Store{Model: "s"}, "s", false},
		{command.Retrieve{Name: "r"}, "r", false},
		{command.Stresses{Model: "m"}, "m", false},
		{command.List{What: command.ListDB}, "", false},
		{command.Help{}, "", false},
	}
	for _, c := range cases {
		if got := command.ModelOf(c.cmd); got != c.model {
			t.Errorf("ModelOf(%T) = %q, want %q", c.cmd, got, c.model)
		}
		if got := command.PropsOf(c.cmd).Has(command.Heavy); got != c.heavy {
			t.Errorf("heavy(%T) = %v, want %v", c.cmd, got, c.heavy)
		}
	}
}

// TestInlineSubmitHonoursCtxBehindModelLock: a cheap inline submit
// queued behind a running solve on the same model gives up when its
// context dies instead of blocking the submitter for the solve's
// duration.
func TestInlineSubmitHonoursCtxBehindModelLock(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		close(started)
		<-release
		return &command.SolveResult{}, nil
	})
	if _, err := s.Submit(context.Background(), "eng", ex, solveOn("a")); err != nil {
		t.Fatal(err)
	}
	within(t, "the job's start", func() { <-started }) // the solve holds model "a"

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	cheap := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		t.Error("inline command ran despite its dead context")
		return nil, nil
	})
	donec := make(chan JobID, 1)
	go func() {
		id, err := s.Submit(ctx, "eng", cheap, command.Store{Model: "a"})
		if err != nil {
			t.Error(err)
		}
		donec <- id
	}()
	select {
	case id := <-donec:
		snap, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != Cancelled {
			t.Errorf("inline job state = %v, want cancelled", snap.State)
		}
		if _, err := waitJob(t, s, id); !errors.Is(err, errs.ErrCancelled) {
			t.Errorf("Wait = %v, want ErrCancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("inline Submit still blocked long after its ctx expired")
	}
}

// awaitWaiters polls until n goroutines wait on s.cond for a model.
func awaitWaiters(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	within(t, fmt.Sprintf("%d model waiters", n), func() {
		for {
			s.mu.Lock()
			waiting := s.waiting
			s.mu.Unlock()
			if waiting == n {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestInlineSubmitRunsWhenTheJobHoldingItsModelEnds: a cheap inline
// submit waiting for a model a running solve holds runs as soon as the
// solve ends — the solve's finish is the only event that wakes it.
func TestInlineSubmitRunsWhenTheJobHoldingItsModelEnds(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	ctx := context.Background()
	started, release := make(chan struct{}, 1), make(chan struct{})
	if _, err := s.Submit(ctx, "eng", blockingExec(started, release), solveOn("a")); err != nil {
		t.Fatal(err)
	}
	within(t, "the job's start", func() { <-started }) // the solve holds model "a"
	cheap := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return &command.StoreResult{}, nil
	})
	submitted := make(chan JobID, 1)
	go func() {
		id, err := s.Submit(ctx, "eng", cheap, command.Store{Model: "a"})
		if err != nil {
			t.Error(err)
		}
		submitted <- id
	}()
	awaitWaiters(t, s, 1)
	close(release)
	select {
	case id := <-submitted:
		if snap, err := s.Status(id); err != nil || snap.State != Done {
			t.Errorf("inline job = %+v, %v, want done", snap, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("inline Submit still waits 5 s after the solve holding its model ended")
	}
}

// TestInlineSubmitFinishRunsTheJobQueuedBehindIt: a solve queued behind
// an inline job on the same model, with no worker running, runs once the
// inline job finishes — its finish is the only event that can start a
// worker for it.
func TestInlineSubmitFinishRunsTheJobQueuedBehindIt(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	ctx := context.Background()
	gate, started := make(chan struct{}), make(chan struct{})
	inline := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		close(started)
		<-gate
		return &command.StoreResult{}, nil
	})
	submitted := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, "eng", inline, command.Store{Model: "a"})
		submitted <- err
	}()
	within(t, "the inline job's start", func() { <-started }) // it holds model "a"
	id, err := s.Submit(ctx, "eng", quickExec, solveOn("a"))
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := s.Status(id); snap.State != Queued {
		t.Fatalf("solve behind the inline job is %v, want queued", snap.State)
	}
	close(gate)
	within(t, "the inline submit", func() { err = <-submitted })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, Done)
}

// TestRetentionEvictsOldTerminalJobs: the scheduler's job history is
// bounded; the oldest finished jobs fall off while live jobs survive.
func TestRetentionEvictsOldTerminalJobs(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	s.SetRetention(2)
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return &command.ListResult{}, nil
	})
	var last JobID
	for i := 0; i < 6; i++ {
		id, err := s.Submit(context.Background(), "eng", ex, command.List{What: command.ListDB})
		if err != nil {
			t.Fatal(err)
		}
		last = id
	}
	if got := list(t, s, Filter{}); len(got) > 3 {
		t.Errorf("retained %d job records, want <= retention bound (+ in-flight)", len(got))
	}
	// The newest job survives; the oldest was evicted to NotFound.
	if _, err := s.Status(last); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
	if _, err := s.Status(1); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("oldest job retained: %v", err)
	}
}
