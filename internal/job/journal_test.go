package job

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/command"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
)

// attachMem wires a fresh in-memory journal into a new scheduler.
func attachMem(t *testing.T, workers int) (*Scheduler, store.Store) {
	t.Helper()
	s := NewScheduler(workers)
	st := store.NewMemStore()
	if _, err := s.AttachJournal(st); err != nil {
		t.Fatal(err)
	}
	return s, st
}

// runN runs n successful solve jobs on distinct models and waits for
// each, so the scheduler holds n terminal records.
func runN(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return &command.SolveResult{Model: cmd.(command.Solve).Model, Set: "l"}, nil
	})
	for i := 0; i < n; i++ {
		id, err := s.Submit(context.Background(), "eng", ex, solveOn(fmt.Sprintf("m%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitJob(t, s, id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalRecoversHistory pins the restart story: a new scheduler
// attached to the old scheduler's store serves the full terminal
// history — states, results, and the resumed id counter.
func TestJournalRecoversHistory(t *testing.T) {
	s, st := attachMem(t, 2)
	runN(t, s, 3)
	failing := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return nil, errors.New("boom")
	})
	fid, err := s.Submit(context.Background(), "eng", failing, solveOn("bad"))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, fid)
	s.Close()

	s2 := NewScheduler(2)
	defer s2.Close()
	n, err := s2.AttachJournal(st)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("recovered %d records, want 4", n)
	}
	snap, err := s2.Status(1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Done || snap.Owner != "eng" || snap.Model != "m0" {
		t.Errorf("recovered job-1 = %+v", snap)
	}
	res, err := waitJob(t, s2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sr, ok := res.(*command.SolveResult); !ok || sr.Model != "m0" {
		t.Errorf("recovered result = %#v", res)
	}
	if snap, _ := s2.Status(fid); snap.State != Failed {
		t.Errorf("recovered failed job state = %v", snap.State)
	}
	if _, err := waitJob(t, s2, fid); err == nil || err.Error() != "boom" {
		t.Errorf("recovered failure = %v, want boom", err)
	}
	// The id counter resumes past the recovered history.
	id, err := s2.Submit(context.Background(), "eng",
		execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
			return &command.SolveResult{}, nil
		}), solveOn("next"))
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 {
		t.Errorf("post-recovery id = %v, want job-5", id)
	}
}

// TestRecoverJournalWithoutJournalKeepsHistory: a scheduler with no
// journal has nothing to replay, so RecoverJournal leaves its terminal
// jobs in memory instead of dropping them for a journal's view it does
// not have.
func TestRecoverJournalWithoutJournalKeepsHistory(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	runN(t, s, 3)
	if n, err := s.RecoverJournal(); n != 0 || err != nil {
		t.Fatalf("RecoverJournal = %d, %v, want 0, nil", n, err)
	}
	for id := JobID(1); id <= 3; id++ {
		if snap, err := s.Status(id); err != nil || snap.State != Done {
			t.Errorf("job-%d after RecoverJournal: %v, %v, want done", id, snap.State, err)
		}
	}
	if list := list(t, s, Filter{}); len(list) != 3 {
		t.Errorf("jobs after RecoverJournal: %d, want 3", len(list))
	}
}

// TestJournalLostToRestart pins crash recovery: records still queued or
// running in the store (the previous process died mid-job) come back
// Failed with the deterministic lost-to-restart cause — rewritten in
// the store itself, not just in memory.
func TestJournalLostToRestart(t *testing.T) {
	st := store.NewMemStore()
	cmdRaw, err := command.MarshalCommand(command.Solve{Model: "wing", Set: "tip"})
	if err != nil {
		t.Fatal(err)
	}
	for id, state := range map[int64]string{7: "queued", 9: "running"} {
		raw, err := json.Marshal(journalRecord{
			ID: id, Owner: "eng", Model: "wing", Cmd: cmdRaw, State: state})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(store.JobKey(id), raw); err != nil {
			t.Fatal(err)
		}
	}

	s := NewScheduler(1)
	defer s.Close()
	if _, err := s.AttachJournal(st); err != nil {
		t.Fatal(err)
	}
	for _, id := range []JobID{7, 9} {
		snap, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != Failed {
			t.Errorf("job-%d state = %v, want failed", id, snap.State)
		}
		want := fmt.Sprintf("job-%d lost to restart", id)
		if snap.Err == nil || snap.Err.Error() != want {
			t.Errorf("job-%d err = %v, want %q", id, snap.Err, want)
		}
	}
	// The rewrite is durable: the store's own record is terminal now.
	raw, err := st.Get(store.JobKey(7))
	if err != nil {
		t.Fatal(err)
	}
	var rec journalRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != "failed" || !strings.Contains(rec.Err, "lost to restart") {
		t.Errorf("stored record after recovery = %+v", rec)
	}
}

// TestJournalOutlivesEviction pins the retention fix: a terminal record
// evicted from memory is flushed to the journal first, and Status /
// Wait / Cancel keep answering for it through the journal fallback.
func TestJournalOutlivesEviction(t *testing.T) {
	s, st := attachMem(t, 1)
	defer s.Close()
	s.SetRetention(2)
	runN(t, s, 5)

	// Only the newest two survive in memory...
	if got := len(list(t, s, Filter{})); got != 2 {
		t.Fatalf("in-memory records = %d, want 2", got)
	}
	// ...but every id still answers.
	for id := JobID(1); id <= 5; id++ {
		snap, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status(job-%d) after eviction: %v", id, err)
		}
		if snap.State != Done {
			t.Errorf("job-%d state = %v, want done", id, snap.State)
		}
		if res, err := waitJob(t, s, id); err != nil || res == nil {
			t.Errorf("Wait(job-%d) after eviction = %v, %v", id, res, err)
		}
		if state, err := s.Cancel(id); err != nil || state != Done {
			t.Errorf("Cancel(job-%d) after eviction = %v, %v", id, state, err)
		}
	}
	// And the store holds all five records.
	n := 0
	st.Seek(store.PrefixJob, func(k string, v []byte) bool { n++; return true })
	if n != 5 {
		t.Errorf("journal records = %d, want 5", n)
	}
}

// TestJournalRetentionLoad pins recovery under retention: only the
// newest records load into memory, older ids answer via the fallback.
func TestJournalRetentionLoad(t *testing.T) {
	s, st := attachMem(t, 1)
	runN(t, s, 5)
	s.Close()

	s2 := NewScheduler(1)
	defer s2.Close()
	s2.SetRetention(2)
	if _, err := s2.AttachJournal(st); err != nil {
		t.Fatal(err)
	}
	if got := len(list(t, s2, Filter{})); got != 2 {
		t.Errorf("in-memory records after recovery = %d, want 2", got)
	}
	if snap, err := s2.Status(1); err != nil || snap.State != Done {
		t.Errorf("evicted-at-recovery job-1 = %+v, %v", snap, err)
	}
}

// TestJournalCorruptRecordFails pins the failure mode: a journal record
// that does not decode fails AttachJournal loudly instead of silently
// dropping history.
func TestJournalCorruptRecordFails(t *testing.T) {
	st := store.NewMemStore()
	if err := st.Put(store.JobKey(1), []byte("not json")); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(1)
	defer s.Close()
	if _, err := s.AttachJournal(st); err == nil {
		t.Fatal("AttachJournal accepted a corrupt record")
	}
}

// TestPanickingExecutorFailsTheJob pins the recover boundary around a
// job's command, on a worker goroutine (a heavy solve) and inline on the
// submitter's (a cheap command): the panic ends that job as an ordinary
// failure — terminal, carrying the panic text, journaled so a restarted
// scheduler still answers it — counts server.panics once, and leaves
// the scheduler and the model's lock usable.
func TestPanickingExecutorFailsTheJob(t *testing.T) {
	panicking := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		var nodes []int
		return nil, fmt.Errorf("unreachable %d", nodes[3])
	})
	for _, tc := range []struct {
		name string
		cmd  command.Command
	}{
		{"worker", solveOn("plate")},
		{"inline", command.List{What: command.ListDB}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, st := attachMem(t, 1)
			reg := obs.New()
			s.SetObs(reg)
			var logged []string
			s.SetLogf(func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) })
			ctx := context.Background()

			id, err := s.Submit(ctx, "eng", panicking, tc.cmd)
			if err != nil {
				t.Fatal(err)
			}
			_, panicErr := waitJob(t, s, id)
			if panicErr == nil || !strings.Contains(panicErr.Error(), "panic executing") || !strings.Contains(panicErr.Error(), "index out of range") {
				t.Fatalf("Wait on the panicked job: err = %v, want the panic text", panicErr)
			}
			if snap, _ := s.Status(id); snap.State != Failed {
				t.Errorf("state = %v, want failed", snap.State)
			}
			if got := reg.Counter(obs.ServerPanics).Load(); got != 1 {
				t.Errorf("%s = %d, want 1", obs.ServerPanics, got)
			}
			if got := reg.Counter(obs.JobFailed).Load(); got != 1 {
				t.Errorf("%s = %d, want 1", obs.JobFailed, got)
			}
			if len(logged) != 1 || !strings.Contains(logged[0], "goroutine") {
				t.Errorf("logged %q, want one line with the stack", logged)
			}

			// Same model, same worker: neither was lost to the panic.
			runN(t, s, 1)
			next, err := s.Submit(ctx, "eng", execFunc(func(context.Context, command.Command) (command.Result, error) {
				return &command.SolveResult{Model: "plate", Set: "l"}, nil
			}), tc.cmd)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := waitJob(t, s, next); err != nil {
				t.Errorf("job after the panic: %v", err)
			}
			s.Close()

			s2 := NewScheduler(1)
			defer s2.Close()
			if _, err := s2.AttachJournal(st); err != nil {
				t.Fatal(err)
			}
			if snap, _ := s2.Status(id); snap.State != Failed {
				t.Errorf("recovered state = %v, want failed", snap.State)
			}
			if _, err := waitJob(t, s2, id); err == nil || err.Error() != panicErr.Error() {
				t.Errorf("recovered failure = %v, want %v", err, panicErr)
			}
		})
	}
}

// TestJournalRecordAllocationFree: encoding a job's record allocates
// nothing once the buffer has grown, and the scheduler's record keeps
// nothing of the job afterwards.
func TestJournalRecordAllocationFree(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	s.SetEpochSource(func() int64 { return 3 })
	j := &job{
		id: 7, owner: "eng", model: "a", cmd: solveOn("a"), state: Done,
		res: &command.SolveResult{Model: "a", Set: "l", Backend: "cholesky",
			Residual: 1.5e-12, Flops: 120, Refactored: true, MaxDisp: 2.25, MaxDOF: 3},
		ops: 1, flops: 120, cycles: 40,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, _, err := s.recordLocked(j); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { s.recordLocked(j) }); n != 0 {
		t.Errorf("recordLocked allocates %v times per record, want 0", n)
	}
	if !reflect.ValueOf(s.rec).IsZero() {
		t.Errorf("the scheduler's record still holds %+v after the encode", s.rec)
	}
}

// TestJournalWriteFailureDoesNotStopScheduler pins the journal's jobs
// contract: a store that fails every write must not fail the jobs it
// records — the scheduler counts and logs the misses and the jobs
// themselves still run to Done.
func TestJournalWriteFailureDoesNotStopScheduler(t *testing.T) {
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpPut, Fault: fault.Fault{Err: fault.ErrIO}})
	st := fault.NewStore(store.NewMemStore(), in)
	s := NewScheduler(2)
	defer s.Close()
	if _, err := s.AttachJournal(st); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	s.SetLogf(func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	in.Arm()

	runN(t, s, 3)
	for id := JobID(1); id <= 3; id++ {
		snap, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != Done {
			t.Errorf("job-%d under journal faults = %v, want done", id, snap.State)
		}
	}
	if got := s.JournalErrors(); got < 6 { // submit + terminal write per job
		t.Errorf("JournalErrors() = %d, want >= 6", got)
	}
	mu.Lock()
	defer mu.Unlock()
	// Rate-limited: first three misses log, the fourth through 99th are
	// silent.
	if len(lines) != 3 {
		t.Errorf("logged %d lines, want 3 (rate-limited): %q", len(lines), lines)
	}
	for _, l := range lines {
		if !strings.Contains(l, "journal write") || !strings.Contains(l, "continuing") {
			t.Errorf("log line %q does not describe a tolerated journal miss", l)
		}
	}
}
