package job

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/store"
)

// oracleLoad is the recovery of one record as it stood while records were
// read with encoding/json alone (commit 42b3843), verbatim but for
// working on one record: json.Unmarshal, a record left queued or running
// rewritten failed, and the job rebuilt by jobFromRecord from the raw
// command and result (oracleJobFromRecord).  It returns the job, the
// rewrite (nil for a terminal record) and the error AttachJournal gave.
func oracleLoad(k string, v []byte) (*job, []byte, error) {
	var rec journalRecord
	if err := json.Unmarshal(v, &rec); err != nil {
		return nil, nil, fmt.Errorf("job: corrupt journal record %q: %w", k, err)
	}
	var rewrite []byte
	st, err := ParseState(rec.State)
	if err != nil || !st.Terminal() {
		rec.State = Failed.String()
		rec.Err = lostErr(rec.ID)
		rec.Result = nil
		raw, err := recordPlan.Append(nil, reflect.ValueOf(&rec).Elem())
		if err != nil {
			return nil, nil, fmt.Errorf("job: re-encode journal record: %w", err)
		}
		rewrite = raw
	}
	j, err := oracleJobFromRecord(rec)
	return j, rewrite, err
}

// oracleJobFromRecord is jobFromRecord as it stood at commit 42b3843.
func oracleJobFromRecord(rec journalRecord) (*job, error) {
	st, err := ParseState(rec.State)
	if err != nil {
		return nil, fmt.Errorf("job: journal record %d: %w", rec.ID, err)
	}
	cmd, err := command.UnmarshalCommand(rec.Cmd)
	if err != nil {
		return nil, fmt.Errorf("job: journal record %d: %w", rec.ID, err)
	}
	j := &job{
		id: JobID(rec.ID), owner: rec.Owner, model: rec.Model, cmd: cmd,
		cancel: func() {}, state: st,
		ops: rec.Ops, flops: rec.Flops, cycles: rec.Cycles,
		done: make(chan struct{}),
	}
	close(j.done) // recovered records are terminal by construction
	if rec.Err != "" {
		j.err = errors.New(rec.Err)
	}
	if len(rec.Result) > 0 {
		if res, err := command.UnmarshalResult(rec.Result); err == nil {
			j.res = res
		}
	}
	return j, nil
}

// FuzzJournalRecord feeds arbitrary "j:" values through journal recovery
// on a MemStore, then Status, and holds recovery to oracleLoad: the same
// error or none; the same status rendering, result included; the same
// bytes when the recovered job is re-encoded; the same rewrite of a
// record left queued or running.  Whether recordPlan reads the record or
// declines it to encoding/json, nothing may differ.  Besides: no panic,
// recovery may not allocate out of proportion to its input, and a record
// it accepts, re-encoded by recordLocked and recovered again, must give
// the same status rendering.
func FuzzJournalRecord(f *testing.F) {
	solved := &command.SolveResult{Model: "m", Set: "l", Backend: "cholesky", Flops: 4096, MaxDisp: 0.25, MaxDOF: 7}
	for _, j := range []*job{
		{id: 1, owner: "eng", model: "m", cmd: solveOn("m"), state: Done, res: solved, ops: 1, flops: 4096},
		{id: 2, owner: "eng", model: "m", cmd: solveOn("m"), state: Failed, err: errors.New("fem: singular stiffness"), ops: 1},
		{id: 3, owner: "ann", model: "p", cmd: solveOn("p"), state: Cancelled, err: fmt.Errorf("job-3: %w", errs.ErrCancelled)},
		{id: 4, owner: "eng", model: "m", cmd: solveOn("m"), state: Queued},
	} {
		f.Add(recordOf(f, j))
	}
	// A record with the "attempt" key that automatic resubmission of lost
	// jobs once wrote; the decoder ignores it.
	f.Add([]byte(`{"id":5,"owner":"eng","model":"m","cmd":{"verb":"solve","body":{"Model":"m","Set":"l","Method":"","Precond":"","Parallel":0,"Substructures":0}},"state":"running","attempt":1}`))
	// The same keys and "resubmitted" on a done record; keys in another
	// order; white space inside and around; an escaped string.
	done := recordOf(f, &job{id: 6, owner: "eng", model: "m", cmd: solveOn("m"), state: Done, res: solved, ops: 1})
	f.Add(append(done[:len(done)-1:len(done)-1], `,"attempt":2,"resubmitted":true}`...))
	f.Add([]byte(`{"state":"done","id":7,"cmd":{"body":{"Set":"l","Model":"m"},"verb":"solve"},"owner":"eng","ops":1}`))
	f.Add([]byte(" {\n \"id\": 8, \"owner\": \"eng\", \"model\": \"m\", \"cmd\": { \"verb\": \"solve\", \"body\": {\"Model\": \"m\", \"Set\": \"l\"} }, \"state\": \"failed\", \"err\": \"a\\u003cb\" }\n"))
	for _, lost := range lostInputs(f) {
		f.Add(lost)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		key := store.JobKey(1)
		st := store.NewMemStore()
		if err := st.Put(key, raw); err != nil {
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

		var planned journalRecord
		rest, plan := recordPlan.Decode(raw, reflect.ValueOf(&planned).Elem())
		plan = plan && len(rest) == 0
		want, rewrite, wantErr := oracleLoad(key, raw)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("recovery (plan read it: %v): %v\nencoding/json: %v", plan, err, wantErr)
		}
		if err != nil {
			return
		}
		if n != 1 {
			t.Fatalf("recovered %d records from one", n)
		}
		oracle := NewScheduler(1)
		defer oracle.Close()
		oracle.jobs[want.id], oracle.order = want, []JobID{want.id}
		if got, w := first, statusRendering(t, oracle); got != w {
			t.Fatalf("recovery (plan read it: %v) renders\n%s\nencoding/json\n%s", plan, got, w)
		}
		if rewrite != nil {
			if got, err := st.Get(store.JobKey(int64(want.id))); err != nil || !bytes.Equal(got, rewrite) {
				t.Fatalf("recovery (plan read it: %v) rewrote the lost record as\n%s (%v)\nencoding/json\n%s", plan, got, err, rewrite)
			}
		}

		// A recovered job is settled when its record lies under its own
		// key, and held in full otherwise.
		s.mu.Lock()
		j, full := s.jobs[want.id]
		s.mu.Unlock()
		if !full {
			if j, err = s.journalLookup(want.id); err != nil {
				t.Fatalf("lookup of the recovered record: %v", err)
			}
		}
		s.mu.Lock()
		again, _, err := s.recordLocked(j)
		again = bytes.Clone(again)
		s.mu.Unlock()
		if err != nil {
			t.Fatalf("re-encode of a recovered record: %v", err)
		}
		if w := recordOf(t, want); !bytes.Equal(again, w) {
			t.Fatalf("recovery (plan read it: %v) re-encodes as\n%s\nencoding/json\n%s", plan, again, w)
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
	return snapshotRendering(snap)
}

// snapshotRendering renders what the status and jobs verbs show of a job.
func snapshotRendering(snap Snapshot) string {
	out := fmt.Sprintf("job-%d owner=%q model=%q state=%s cmd=%q ops=%d flops=%d cycles=%d",
		snap.ID, snap.Owner, snap.Model, snap.State, snap.Cmd.String(), snap.Ops, snap.Flops, snap.Cycles)
	if snap.Err != nil {
		out += fmt.Sprintf(" err=%q", snap.Err)
	}
	if snap.Result != nil {
		out += fmt.Sprintf(" result=%q", snap.Result.String())
	}
	return out
}
