package job

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/command"
	"repro/internal/store"
)

// recordOf is the record the scheduler writes for j.
func recordOf(t testing.TB, j *job) []byte {
	t.Helper()
	s := NewScheduler(1)
	defer s.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, _, err := s.recordLocked(j)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(raw)
}

// lostInputs are records a crash left queued or running, in each of the
// spellings recovery meets: as the scheduler writes them (read by the
// plan), with white space, reordered keys and a string encoding/json
// escapes on the way out (read by the fallback), and with the keys
// automatic resubmission once wrote.
func lostInputs(t testing.TB) map[int64][]byte {
	return map[int64][]byte{
		11: recordOf(t, &job{id: 11, owner: "eng", model: "m", cmd: solveOn("m"), state: Running, ops: 1}),
		12: []byte(" { \"state\": \"queued\", \"id\": 12, \"cmd\": {\"body\": {\"Set\": \"l\", \"Model\": \"m\"}, \"verb\": \"solve\"}, \"owner\": \"a<b\", \"model\": \"m\" } "),
		13: []byte(`{"id":13,"owner":"eng","model":"m","cmd":{"verb":"solve","body":{"Model":"m","Set":"l","Method":"","Precond":"","Parallel":0,"Substructures":0}},"state":"running","attempt":2,"resubmitted":true}`),
	}
}

// TestJournalLostRecordBytes pins the bytes recovery writes over a record
// left queued or running, for each spelling in lostInputs: the literals
// are what the scheduler wrote while every record was read with
// encoding/json (taken at commit 42b3843).
func TestJournalLostRecordBytes(t *testing.T) {
	want := map[int64]string{
		11: `{"id":11,"owner":"eng","model":"m","cmd":{"verb":"solve","body":{"Model":"m","Set":"l","Method":"","Precond":"","Parallel":0,"Substructures":0}},"state":"failed","err":"job-11 lost to restart","ops":1}`,
		12: `{"id":12,"owner":"a\u003cb","model":"m","cmd":{"body":{"Set":"l","Model":"m"},"verb":"solve"},"state":"failed","err":"job-12 lost to restart"}`,
		13: `{"id":13,"owner":"eng","model":"m","cmd":{"verb":"solve","body":{"Model":"m","Set":"l","Method":"","Precond":"","Parallel":0,"Substructures":0}},"state":"failed","err":"job-13 lost to restart"}`,
	}
	st := store.NewMemStore()
	for id, raw := range lostInputs(t) {
		if err := st.Put(store.JobKey(id), raw); err != nil {
			t.Fatal(err)
		}
	}
	s := NewScheduler(1)
	defer s.Close()
	if _, err := s.AttachJournal(st); err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		got, err := st.Get(store.JobKey(id))
		if err != nil || string(got) != w {
			t.Errorf("job-%d rewritten as\n%s (%v)\nwant\n%s", id, got, err, w)
		}
	}
}

// scribbler is a store whose Seek hands fn each value in a buffer of its
// own and overwrites that buffer once fn returns, as a store reading
// values into a reused window may: whatever keeps a slice of a value
// past its call sees the scribble.
type scribbler struct{ store.Store }

func (s scribbler) Seek(prefix string, fn func(key string, value []byte) bool) error {
	return s.Store.Seek(prefix, func(k string, v []byte) bool {
		buf := bytes.Clone(v)
		more := fn(k, buf)
		for i := range buf {
			buf[i] = '#'
		}
		return more
	})
}

// TestJournalRecoveryKeepsNoSeekValue recovers one journal from a plain
// store and through a scribbler: the status and jobs renderings and the
// records the recovery leaves in the store must agree, which they do not
// when a recovered record keeps a slice of a Seek value.
func TestJournalRecoveryKeepsNoSeekValue(t *testing.T) {
	solved := &command.SolveResult{Model: "m", Set: "l", Backend: "cholesky", Flops: 4096, MaxDisp: 0.25, MaxDOF: 7}
	records := lostInputs(t)
	for _, j := range []*job{
		{id: 1, owner: "eng", model: "m", cmd: solveOn("m"), state: Done, res: solved, ops: 1, flops: 4096},
		{id: 2, owner: "eng", model: "m", cmd: solveOn("m"), state: Failed, err: errors.New("fem: singular stiffness"), ops: 1},
		{id: 3, owner: "ann", model: "p", cmd: command.Submit{Cmd: solveOn("p")}, state: Cancelled, err: errors.New("job-3: cancelled")},
	} {
		records[int64(j.id)] = recordOf(t, j)
	}
	// A done record whose result the plan declines (white space), so the
	// fallback reads it.
	records[4] = bytes.Replace(recordOf(t, &job{id: 4, owner: "eng", model: "m", cmd: solveOn("m"), state: Done, res: solved}), []byte(`"result":`), []byte(`"result": `), 1)

	recover := func(wrap func(store.Store) store.Store) (string, map[string]string) {
		st := store.NewMemStore()
		for id, raw := range records {
			if err := st.Put(store.JobKey(id), raw); err != nil {
				t.Fatal(err)
			}
		}
		s := NewScheduler(1)
		defer s.Close()
		if n, err := s.AttachJournal(wrap(st)); err != nil || n != len(records) {
			t.Fatalf("recovered %d of %d records: %v", n, len(records), err)
		}
		var out strings.Builder
		for _, snap := range list(t, s, Filter{}) {
			fmt.Fprintln(&out, snapshotRendering(snap))
		}
		left := map[string]string{}
		st.Seek(store.PrefixJob, func(k string, v []byte) bool { left[k] = string(v); return true })
		return out.String(), left
	}
	plainJobs, plainLeft := recover(func(st store.Store) store.Store { return st })
	jobs, left := recover(func(st store.Store) store.Store { return scribbler{st} })
	if jobs != plainJobs {
		t.Errorf("jobs recovered through a scribbled Seek:\n%s\nfrom the store itself:\n%s", jobs, plainJobs)
	}
	for k, v := range plainLeft {
		if left[k] != v {
			t.Errorf("%s after recovery through a scribbled Seek:\n%s\nfrom the store itself:\n%s", k, left[k], v)
		}
	}
}
