package job

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/store"
)

// FuzzJournalRecord feeds arbitrary "j:" values through journal recovery
// on a MemStore, then Status: neither may panic, recovery may not
// allocate out of proportion to its input, and a record it accepts,
// re-encoded by recordLocked and recovered again, must give the same
// status rendering.
func FuzzJournalRecord(f *testing.F) {
	s := NewScheduler(1)
	defer s.Close()
	solved := &command.SolveResult{Model: "m", Set: "l", Backend: "cholesky", Flops: 4096, MaxDisp: 0.25, MaxDOF: 7}
	for _, j := range []*job{
		{id: 1, owner: "eng", model: "m", cmd: solveOn("m"), state: Done, res: solved, ops: 1, flops: 4096},
		{id: 2, owner: "eng", model: "m", cmd: solveOn("m"), state: Failed, err: errors.New("fem: singular stiffness"), ops: 1},
		{id: 3, owner: "ann", model: "p", cmd: solveOn("p"), state: Cancelled, err: fmt.Errorf("job-3: %w", errs.ErrCancelled)},
		{id: 4, owner: "eng", model: "m", cmd: solveOn("m"), state: Queued},
	} {
		s.mu.Lock()
		raw, err := s.recordLocked(j)
		raw = append([]byte(nil), raw...)
		s.mu.Unlock()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// A record with the "attempt" key that automatic resubmission of lost
	// jobs once wrote; the decoder ignores it.
	f.Add([]byte(`{"id":5,"owner":"eng","model":"m","cmd":{"verb":"solve","body":{"Model":"m","Set":"l","Method":"","Precond":"","Parallel":0,"Substructures":0}},"state":"running","attempt":1}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		st := store.NewMemStore()
		if err := st.Put(store.JobKey(1), raw); err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(1)
		defer s.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := s.AttachJournal(st)
		var first string
		if err == nil {
			first = statusRendering(t, s)
		}
		runtime.ReadMemStats(&after)
		// The slack covers the scheduler's own bookkeeping and the
		// runtime's goroutines.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+(1<<16)); got > limit {
			t.Fatalf("recovering %d bytes allocated %d, limit %d", len(raw), got, limit)
		}
		if err != nil {
			return
		}
		if n != 1 {
			t.Fatalf("recovered %d records from one", n)
		}

		s.mu.Lock()
		j := s.jobs[s.order[0]]
		again, err := s.recordLocked(j)
		again = append([]byte(nil), again...)
		s.mu.Unlock()
		if err != nil {
			t.Fatalf("re-encode of a recovered record: %v", err)
		}
		st2 := store.NewMemStore()
		if err := st2.Put(store.JobKey(int64(j.id)), again); err != nil {
			t.Fatal(err)
		}
		s2 := NewScheduler(1)
		defer s2.Close()
		if _, err := s2.AttachJournal(st2); err != nil {
			t.Fatalf("re-encoded record %s refused: %v", again, err)
		}
		if second := statusRendering(t, s2); second != first {
			t.Fatalf("status of the re-encoded record\n%s\nwant\n%s", second, first)
		}
	})
}

// statusRendering renders what the status verb shows of the one job s
// recovered, read through Status.
func statusRendering(t *testing.T, s *Scheduler) string {
	t.Helper()
	s.mu.Lock()
	id := s.order[0]
	s.mu.Unlock()
	snap, err := s.Status(id)
	if err != nil {
		t.Fatalf("Status of a recovered job: %v", err)
	}
	out := fmt.Sprintf("job-%d owner=%q model=%q state=%s cmd=%q ops=%d flops=%d cycles=%d",
		snap.ID, snap.Owner, snap.Model, snap.State, snap.Cmd.String(), snap.Ops, snap.Flops, snap.Cycles)
	if snap.Err != nil {
		out += fmt.Sprintf(" err=%q", snap.Err)
	}
	return out
}
