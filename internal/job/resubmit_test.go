package job

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/command"
	"repro/internal/fault"
	"repro/internal/store"
)

// lostRecord writes a crash-shaped (non-terminal) journal record, as a
// process killed mid-job leaves behind.
func lostRecord(t *testing.T, st store.Store, id int64, state string, attempt int) {
	t.Helper()
	cmdRaw, err := command.MarshalCommand(command.Solve{Model: "wing", Set: "tip"})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(journalRecord{
		ID: id, Owner: "eng", Model: "wing", Cmd: cmdRaw,
		State: state, Attempt: attempt})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.JobKey(id), raw); err != nil {
		t.Fatal(err)
	}
}

// TestJournalWriteFailureDoesNotStopScheduler pins the tentpole's jobs
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

// TestResubmitLost pins the opt-in recovery loop: lost records under the
// attempt bound are requeued exactly once each (marked in the journal
// before the requeue), run as fresh jobs at attempt n+1, and records at
// the bound stay failed.
func TestResubmitLost(t *testing.T) {
	st := store.NewMemStore()
	lostRecord(t, st, 3, "running", 0)
	lostRecord(t, st, 5, "queued", 0)
	lostRecord(t, st, 8, "running", 2) // already at the bound

	s := NewScheduler(2)
	defer s.Close()
	if _, err := s.AttachJournal(st); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	owners := make(map[string]int)
	resolve := func(owner string) Executor {
		return execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
			mu.Lock()
			owners[owner]++
			mu.Unlock()
			return &command.SolveResult{Model: cmd.(command.Solve).Model, Set: "l"}, nil
		})
	}

	ids, err := s.ResubmitLost(context.Background(), resolve, ResubmitPolicy{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("resubmitted %v, want two jobs (3 and 5; 8 is at the bound)", ids)
	}
	for _, id := range ids {
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Errorf("resubmitted %s failed: %v", id, err)
		}
		snap, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != Done || snap.Attempt != 1 || snap.Owner != "eng" {
			t.Errorf("resubmitted %s = %+v, want done at attempt 1 for eng", id, snap)
		}
	}
	mu.Lock()
	if owners["eng"] != 2 {
		t.Errorf("executor ran %d times for eng, want 2", owners["eng"])
	}
	mu.Unlock()
	// The originals stay failed and are durably marked resubmitted.
	for _, id := range []int64{3, 5} {
		raw, err := st.Get(store.JobKey(id))
		if err != nil {
			t.Fatal(err)
		}
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State != "failed" || !rec.Resubmitted {
			t.Errorf("original record %d = %+v, want failed+resubmitted", id, rec)
		}
	}
	if snap, _ := s.Status(8); snap.State != Failed {
		t.Errorf("at-bound job-8 = %v, want left failed", snap.State)
	}
	// At-most-once: a second pass finds nothing to requeue.
	again, err := s.ResubmitLost(context.Background(), resolve, ResubmitPolicy{MaxAttempts: 2})
	if err != nil || len(again) != 0 {
		t.Errorf("second ResubmitLost = %v, %v, want none", again, err)
	}
}

// TestResubmitLostSurvivesRestart pins the crash-loop story: after the
// resubmitted-mark is persisted, a fresh scheduler recovering the same
// store does not requeue the record again.
func TestResubmitLostSurvivesRestart(t *testing.T) {
	st := store.NewMemStore()
	lostRecord(t, st, 2, "running", 0)

	resolve := func(owner string) Executor {
		return execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
			return &command.SolveResult{}, nil
		})
	}
	s := NewScheduler(1)
	if _, err := s.AttachJournal(st); err != nil {
		t.Fatal(err)
	}
	ids, err := s.ResubmitLost(context.Background(), resolve, ResubmitPolicy{MaxAttempts: 3})
	if err != nil || len(ids) != 1 {
		t.Fatalf("ResubmitLost = %v, %v, want one id", ids, err)
	}
	if _, err := s.Wait(context.Background(), ids[0]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := NewScheduler(1)
	defer s2.Close()
	if _, err := s2.AttachJournal(st); err != nil {
		t.Fatal(err)
	}
	again, err := s2.ResubmitLost(context.Background(), resolve, ResubmitPolicy{MaxAttempts: 3})
	if err != nil || len(again) != 0 {
		t.Errorf("post-restart ResubmitLost = %v, %v, want none (already resubmitted)", again, err)
	}
}

// TestResubmitLostBackoffHonoursContext pins that the backoff sleeps
// abort with the context instead of blocking shutdown.
func TestResubmitLostBackoffHonoursContext(t *testing.T) {
	st := store.NewMemStore()
	lostRecord(t, st, 1, "running", 0)
	s := NewScheduler(1)
	defer s.Close()
	if _, err := s.AttachJournal(st); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resolve := func(owner string) Executor {
		return execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
			return &command.SolveResult{}, nil
		})
	}
	start := time.Now()
	ids, err := s.ResubmitLost(ctx, resolve, ResubmitPolicy{MaxAttempts: 1, Backoff: time.Hour})
	if err == nil || len(ids) != 0 {
		t.Errorf("cancelled ResubmitLost = %v, %v, want ctx error and no ids", ids, err)
	}
	if time.Since(start) > time.Second {
		t.Error("ResubmitLost blocked through the backoff despite a dead context")
	}
}
