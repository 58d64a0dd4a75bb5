package job

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/command"
	"repro/internal/fault"
	"repro/internal/store"
)

// finishedJobBytes is what one finished job may keep on the heap: its
// record, boxed command and place in the map and the order queue.  A job
// that kept its context, the context's cancel func and a done channel of
// its own kept 494 B on linux/amd64; one that drops them keeps 286 B.
const finishedJobBytes = 360

// TestFinishedJobsKeepNoRunMachinery runs n jobs to the end and holds
// what they keep, with the scheduler alive, to finishedJobBytes a job;
// every finished job holds no executor, context or cancel func and
// shares the one closed done channel.
func TestFinishedJobsKeepNoRunMachinery(t *testing.T) {
	const n = 2000
	s := NewScheduler(1)
	defer s.Close()
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return nil, nil
	})
	ctx := context.Background()
	// The first job starts the pool; what that allocates is not a job's.
	if id, err := s.Submit(ctx, "eng", ex, solveOn("m")); err != nil {
		t.Fatal(err)
	} else if _, err := waitJob(t, s, id); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		id, err := s.Submit(ctx, "eng", ex, solveOn("m"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitJob(t, s, id); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	if per > finishedJobBytes {
		t.Errorf("a finished job keeps %d B, ceiling %d B", per, finishedJobBytes)
	}
	t.Logf("a finished job keeps %d B", per)
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, j := range s.jobs {
		if j.ex != nil || j.ctx != nil || j.cancel != nil || j.done != finished {
			t.Fatalf("finished %s holds its executor %v, context %v, cancel %v or a done channel of its own", id, j.ex != nil, j.ctx != nil, j.cancel != nil)
		}
	}
}

// TestFinishedAndRecoveredJobsAnswer runs Wait, Status, List and Cancel
// on recovered jobs and on running jobs as they finish, from several
// goroutines at once (run it under -race, which reports a read of a
// job's done channel or cancel func outside the scheduler's lock that
// races with finishLocked dropping it): every job answers, and a
// finished one with its terminal state.  The running jobs ignore their
// context and end when the gate opens, so a Cancel sees them running.
func TestFinishedAndRecoveredJobsAnswer(t *testing.T) {
	mem := store.NewMemStore()
	for _, j := range []*job{
		{id: 1, owner: "eng", model: "m", cmd: solveOn("m"), state: Done, res: &command.SolveResult{Model: "m"}, ops: 1},
		{id: 2, owner: "eng", model: "m", cmd: solveOn("m"), state: Failed, err: errors.New("fem: singular stiffness"), ops: 1},
		{id: 3, owner: "ann", model: "p", cmd: solveOn("p"), state: Running},
	} {
		if err := mem.Put(store.JobKey(int64(j.id)), recordOf(t, j)); err != nil {
			t.Fatal(err)
		}
	}
	const running = 4
	s := NewScheduler(running)
	defer s.Close()
	if n, err := s.AttachJournal(mem); err != nil || n != 3 {
		t.Fatalf("recovered %d of 3 records: %v", n, err)
	}
	gate := make(chan struct{})
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		<-gate
		return &command.SolveResult{Model: command.ModelOf(cmd)}, nil
	})
	ctx := context.Background()
	ids := []JobID{1, 2, 3}
	for i := 0; i < running; i++ {
		id, err := s.Submit(ctx, "eng", ex, solveOn(string(rune('a'+i))))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, id, Running)
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	started := make(chan struct{}, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			for _, id := range ids {
				switch g {
				case 0:
					s.Wait(ctx, id)
				case 1:
					if _, err := s.Status(id); err != nil {
						t.Errorf("status %s: %v", id, err)
					}
				case 2:
					if _, err := s.List(Filter{}); err != nil {
						t.Errorf("list: %v", err)
					}
				case 3:
					if _, err := s.Cancel(id); err != nil {
						t.Errorf("cancel %s: %v", id, err)
					}
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		within(t, "the job's start", func() { <-started })
	}
	close(gate)
	within(t, "the racing Wait, Status, List and Cancel", wg.Wait)
	for _, id := range ids {
		waitJob(t, s, id)
		st, err := s.Cancel(id)
		if err != nil || !st.Terminal() {
			t.Errorf("cancel of finished %s: %v, %v", id, st, err)
		}
		if snap, err := s.Status(id); err != nil || !snap.State.Terminal() {
			t.Errorf("status of finished %s: %v, %v", id, snap.State, err)
		}
	}
}

// TestInlineJobCancelledBeforeItRuns: an inline job cancelled after
// Submit queued it and before Submit runs it, on a model a Hold has,
// ends Cancelled without running, and Submit returns at once: the
// finished job holds no context to wait for the model with.
func TestInlineJobCancelledBeforeItRuns(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	ctx := context.Background()
	if err := s.Hold(ctx, "eng", "a", solveOn("a")); err != nil {
		t.Fatal(err)
	}
	defer s.Release("eng", "a")
	// Submit publishes the queued job under the scheduler's lock, before
	// it unlocks and runs the job: cancel it there, as Cancel does.
	defer s.Subscribe("eng", func(snap Snapshot) {
		if snap.State == Queued {
			s.cancelQueuedLocked(s.jobs[snap.ID])
		}
	})()
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		t.Error("a cancelled inline job ran")
		return nil, nil
	})
	donec := make(chan JobID, 1)
	go func() {
		id, err := s.Submit(ctx, "eng", ex, command.Store{Model: "a"})
		if err != nil {
			t.Error(err)
		}
		donec <- id
	}()
	select {
	case id := <-donec:
		if snap, err := s.Status(id); err != nil || snap.State != Cancelled {
			t.Errorf("inline job: %v, %v; want cancelled", snap.State, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit of a cancelled inline job waits for the held model")
	}
}

// TestJournalScanFailureRefusesSubmits: a recovery scan that fails — the
// store's read, or a retained record whose command does not decode —
// returns its error and loads no job.  Each submit scans again first,
// and while the scan fails it is refused with the scan's error and given
// no id, which could be one the journal holds (job-1, here, whose record
// stays as it was).  Once the store reads again the submit's scan
// recovers job-1..3 and the submit is job-4.  Both for a daemon's
// AttachJournal and for a promoted leader's RecoverJournal.
func TestJournalScanFailureRefusesSubmits(t *testing.T) {
	good := func(t *testing.T, id JobID) []byte {
		return recordOf(t, &job{id: id, owner: "eng", model: "m", cmd: solveOn("m"), state: Done, ops: 1})
	}
	for _, recover := range []struct {
		name  string
		first func(s *Scheduler, st store.Store) error
	}{
		{"attach", func(s *Scheduler, st store.Store) error { _, err := s.AttachJournal(st); return err }},
		{"recover", func(s *Scheduler, st store.Store) error { s.SetJournal(st); _, err := s.RecoverJournal(); return err }},
	} {
		for _, fail := range []struct {
			name string
			// refusals is how many submits the failure refuses.
			refusals int
			// rule fails the store's reads; a nil Rule fails none.
			rule *fault.Rule
			// corrupt is job-2's record, nil for a good one.
			corrupt []byte
			// want is the error recovery and a refused submit return.
			want func(error) bool
			heal func(in *fault.Injector, mem *store.MemStore)
		}{
			{name: "one failed seek", refusals: 0,
				rule: &fault.Rule{Op: fault.OpSeek, Count: 1, Fault: fault.Fault{Err: fault.ErrIO}},
				want: func(err error) bool { return errors.Is(err, fault.ErrIO) }},
			{name: "failing seeks", refusals: 2,
				rule: &fault.Rule{Op: fault.OpSeek, Fault: fault.Fault{Err: fault.ErrIO}},
				want: func(err error) bool { return errors.Is(err, fault.ErrIO) },
				heal: func(in *fault.Injector, mem *store.MemStore) { in.Disarm() }},
			{name: "undecodable command", refusals: 2,
				corrupt: []byte(`{"id":2,"owner":"eng","model":"m","cmd":{"verb":"no-such-verb","body":{}},"state":"done"}`),
				want:    func(err error) bool { return err != nil && strings.Contains(err.Error(), "journal record 2") },
				heal: func(in *fault.Injector, mem *store.MemStore) {
					if err := mem.Put(store.JobKey(2), good(t, 2)); err != nil {
						t.Fatal(err)
					}
				}},
		} {
			t.Run(recover.name+"/"+fail.name, func(t *testing.T) {
				mem := store.NewMemStore()
				for id := JobID(1); id <= 3; id++ {
					raw := good(t, id)
					if id == 2 && fail.corrupt != nil {
						raw = fail.corrupt
					}
					if err := mem.Put(store.JobKey(int64(id)), raw); err != nil {
						t.Fatal(err)
					}
				}
				job1, _ := mem.Get(store.JobKey(1))
				var rules []fault.Rule
				if fail.rule != nil {
					rules = append(rules, *fail.rule)
				}
				in := fault.NewInjector(1, rules...)
				s := NewScheduler(1)
				defer s.Close()
				ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) { return nil, nil })
				ctx := context.Background()
				if err := recover.first(s, fault.NewStore(mem, in)); !fail.want(err) {
					t.Fatalf("recovery: error %v, want the scan's", err)
				}
				if jobs := list(t, s, Filter{}); len(jobs) != 0 {
					t.Fatalf("the failed recovery loaded %d jobs", len(jobs))
				}
				for i := 0; i < fail.refusals; i++ {
					if id, err := s.Submit(ctx, "eng", ex, solveOn("m")); !fail.want(err) {
						t.Fatalf("submit while the scan fails: %v, %v; want the scan's error", id, err)
					}
				}
				if raw, _ := mem.Get(store.JobKey(1)); string(raw) != string(job1) {
					t.Fatalf("job-1's record became %s", raw)
				}
				if fail.heal != nil {
					fail.heal(in, mem)
				}
				id, err := s.Submit(ctx, "eng", ex, solveOn("m"))
				if err != nil || id != 4 {
					t.Fatalf("submit once the store reads: %v, %v; want job-4", id, err)
				}
				if _, err := waitJob(t, s, id); err != nil {
					t.Fatal(err)
				}
				if jobs := list(t, s, Filter{}); len(jobs) != 4 {
					t.Fatalf("%d jobs listed, want job-1..4", len(jobs))
				}
			})
		}
	}
}
