package job

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
)

// settleBackends are the two journals a daemon runs on: a memory store
// that forgets evicted jobs, and a file store that keeps them.
var settleBackends = []struct {
	name string
	open func(t *testing.T, s *Scheduler) store.Conditional
}{
	{"mem", func(t *testing.T, s *Scheduler) store.Conditional {
		s.ForgetEvicted()
		return store.NewMemStore()
	}},
	{"file", func(t *testing.T, s *Scheduler) store.Conditional {
		st, err := store.OpenFileStoreWith(filepath.Join(t.TempDir(), "journal.db"), store.FileOpts{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}},
}

// solved is the result settleExec gives every job: a solve's, carrying
// every field a journal record keeps.
func solved(model string) *command.SolveResult {
	return &command.SolveResult{Model: model, Set: "l", Backend: "cholesky", Flops: 4096, MaxDisp: 0.25, MaxDOF: 7}
}

var settleExec = execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
	return solved(command.ModelOf(cmd)), nil
})

// settledCount reads how many jobs are settled, the retained ids not
// held in full, and checks that every job held in full is retained.
func settledCount(t *testing.T, s *Scheduler) int {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	retained := map[JobID]bool{}
	for _, id := range s.order {
		if retained[id] {
			t.Fatalf("%s is twice in the retention order", id)
		}
		retained[id] = true
	}
	for id := range s.jobs {
		if !retained[id] {
			t.Fatalf("%s is held in full but not retained", id)
		}
	}
	return len(s.order) - len(s.jobs)
}

// answers renders what Status, Wait, Cancel and List say of a job.
func answers(t *testing.T, s *Scheduler, id JobID) string {
	t.Helper()
	snap, err := s.Status(id)
	if err != nil {
		t.Fatalf("status %s: %v", id, err)
	}
	res, werr := waitJob(t, s, id)
	st, err := s.Cancel(id)
	if err != nil {
		t.Fatalf("cancel %s: %v", id, err)
	}
	var row string
	for _, snap := range list(t, s, Filter{}) {
		if snap.ID == id {
			row = snapshotRendering(snap)
		}
	}
	out := fmt.Sprintf("status %s\nwait %v %v\ncancel %v\njobs %s", snapshotRendering(snap), res, werr, st, row)
	if res != nil {
		out += "\nresult " + res.String()
	}
	return out
}

// TestSubmitWaitReadsNoJournal: a submit+wait cycle reads nothing from
// the journal, whether the job is inline (finished when Submit returns)
// or pooled and waited on after it finished, and the wait settles it.
// Settling a job when it finishes instead would make that wait read its
// record back.
func TestSubmitWaitReadsNoJournal(t *testing.T) {
	for _, b := range settleBackends {
		t.Run(b.name, func(t *testing.T) {
			s := NewScheduler(1)
			defer s.Close()
			count := fault.NewInjector(1)
			s.SetJournal(fault.NewStore(b.open(t, s), count))
			ctx := context.Background()
			const n = 50
			for i := 0; i < n; i++ {
				// An inline job has finished when Submit returns; a pooled one
				// is waited on once it has.
				cmd := command.Command(command.Store{Model: "m"})
				if i%2 == 1 {
					cmd = solveOn("m")
				}
				id, err := s.Submit(ctx, "eng", settleExec, cmd)
				if err != nil {
					t.Fatal(err)
				}
				waitState(t, s, id, Done)
				if _, err := waitJob(t, s, id); err != nil {
					t.Fatal(err)
				}
			}
			if got := count.Calls(fault.OpGet); got != 0 {
				t.Errorf("%d submit+wait cycles read the journal %d times, want 0", n, got)
			}
			if got := settledCount(t, s); got != n {
				t.Errorf("%d jobs settled after %d submit+wait cycles", got, n)
			}
		})
	}
}

// TestSettledJobsAnswerAsBefore: Status, Wait, Cancel and List say the
// same of a Done job before its first wait settles it and after, on both
// journals, and a file journal reopened by a new scheduler says it again.
func TestSettledJobsAnswerAsBefore(t *testing.T) {
	for _, b := range settleBackends {
		t.Run(b.name, func(t *testing.T) {
			s := NewScheduler(1)
			st := b.open(t, s)
			s.SetJournal(st)
			ctx := context.Background()
			id, err := s.Submit(ctx, "eng", settleExec, solveOn("m"))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, s, id, Done)
			snap, err := s.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			rows := list(t, s, Filter{})
			if settledCount(t, s) != 0 {
				t.Fatal("a job settled before any wait")
			}
			res, err := waitJob(t, s, id)
			if err != nil || settledCount(t, s) != 1 {
				t.Fatalf("first wait: %v; %d jobs settled, want 1", err, settledCount(t, s))
			}
			want := fmt.Sprintf("status %s\nwait %v %v\ncancel %v\njobs %s\nresult %s",
				snapshotRendering(snap), res, error(nil), Done, snapshotRendering(rows[0]), res.String())
			if got := answers(t, s, id); got != want {
				t.Errorf("settled job answers\n%s\nwant\n%s", got, want)
			}
			s.Close()
			if b.name != "file" {
				return
			}
			s2 := NewScheduler(1)
			defer s2.Close()
			if _, err := s2.AttachJournal(st); err != nil {
				t.Fatal(err)
			}
			if got := answers(t, s2, id); got != want {
				t.Errorf("recovered job answers\n%s\nwant\n%s", got, want)
			}
			if got := settledCount(t, s2); got != 1 {
				t.Errorf("%d recovered jobs settled, want 1", got)
			}
		})
	}
}

// TestJobsThatNeverSettle: a failed job, a cancelled one, a Done job
// whose result its record could not carry (a NaN), and any job of a
// scheduler with no journal — none ever, or none since the job's record
// was written — stay in memory after their wait and answer from there:
// the wait returns the result the job ended with.
func TestJobsThatNeverSettle(t *testing.T) {
	nan := &command.SolveResult{Model: "m", Set: "l", MaxDisp: math.NaN()}
	for _, tc := range []struct {
		name    string
		journal bool
		detach  bool
		res     command.Result
		err     error
		want    State
	}{
		{name: "failed", journal: true, err: errors.New("fem: singular stiffness"), want: Failed},
		{name: "cancelled", journal: true, err: fmt.Errorf("%w: stopped", errs.ErrCancelled), want: Cancelled},
		{name: "NaN result", journal: true, res: nan, want: Done},
		{name: "no journal", res: solved("m"), want: Done},
		{name: "journal detached", journal: true, detach: true, res: solved("m"), want: Done},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler(1)
			defer s.Close()
			if tc.journal {
				s.SetJournal(store.NewMemStore())
			}
			ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
				return tc.res, tc.err
			})
			ctx := context.Background()
			id, err := s.Submit(ctx, "eng", ex, solveOn("m"))
			if err != nil {
				t.Fatal(err)
			}
			if tc.detach {
				waitState(t, s, id, tc.want)
				s.SetJournal(nil)
			}
			for i := 0; i < 2; i++ {
				res, err := waitJob(t, s, id)
				if res != tc.res || !errors.Is(err, tc.err) {
					t.Fatalf("wait %d: %v, %v; want %v, %v", i, res, err, tc.res, tc.err)
				}
			}
			if snap, err := s.Status(id); err != nil || snap.State != tc.want || snap.Result != tc.res {
				t.Errorf("status: %+v, %v; want %v with the job's own result", snap, err, tc.want)
			}
			if got := settledCount(t, s); got != 0 {
				t.Errorf("%d jobs settled, want 0", got)
			}
		})
	}
}

// TestSettledJobReadFailure: a store that fails the read of a settled
// job's record makes Status, Wait, Cancel and List return the store's
// error, never not found.
func TestSettledJobReadFailure(t *testing.T) {
	for _, b := range settleBackends {
		t.Run(b.name, func(t *testing.T) {
			s := NewScheduler(1)
			defer s.Close()
			in := fault.NewInjector(1, fault.Rule{Op: fault.OpGet, Fault: fault.Fault{Err: fault.ErrIO}})
			in.Disarm()
			s.SetJournal(fault.NewStore(b.open(t, s), in))
			ctx := context.Background()
			id, err := s.Submit(ctx, "eng", settleExec, command.Store{Model: "m"})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := waitJob(t, s, id); err != nil || settledCount(t, s) != 1 {
				t.Fatalf("wait: %v; the job did not settle", err)
			}
			in.Arm()
			check := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, fault.ErrIO) || errors.Is(err, errs.ErrNotFound) {
					t.Errorf("%s of a settled job on a failing store: %v, want the store's error", what, err)
				}
			}
			_, err = s.Status(id)
			check("status", err)
			_, err = waitJob(t, s, id)
			check("wait", err)
			_, err = s.Cancel(id)
			check("cancel", err)
			_, err = s.List(Filter{})
			check("jobs", err)
			in.Disarm()
			if got := answers(t, s, id); got == "" {
				t.Error("no answer once the store reads again")
			}
		})
	}
}

// TestRetentionCountsSettledJobs: full and settled jobs share the
// retention bound; evicting a settled job from a journal that forgets
// evicted jobs deletes its record, and from one that keeps them leaves
// it, answering as before.  The job.settled gauge reads the settled
// jobs.
func TestRetentionCountsSettledJobs(t *testing.T) {
	for _, b := range settleBackends {
		t.Run(b.name, func(t *testing.T) {
			const retain, n = 4, 10
			s := NewScheduler(1)
			defer s.Close()
			reg := obs.New()
			s.SetObs(reg)
			st := b.open(t, s)
			s.SetJournal(st)
			s.SetRetention(retain)
			ctx := context.Background()
			var ids []JobID
			for i := 0; i < n; i++ {
				id, err := s.Submit(ctx, "eng", settleExec, command.Store{Model: "m"})
				if err != nil {
					t.Fatal(err)
				}
				// One job of the window is left unwaited, held in full.
				if i != n-2 {
					if _, err := waitJob(t, s, id); err != nil {
						t.Fatal(err)
					}
				}
				ids = append(ids, id)
			}
			s.mu.Lock()
			full := len(s.jobs)
			s.mu.Unlock()
			settled := settledCount(t, s)
			if full != 1 || settled != retain-1 {
				t.Fatalf("%d full and %d settled jobs retained, want 1 and %d", full, settled, retain-1)
			}
			if got := reg.Gauge(obs.JobSettled).Load(); got != int64(settled) {
				t.Errorf("job.settled reads %d, want %d", got, settled)
			}
			var records []string
			if err := st.Seek(store.PrefixJob, func(k string, v []byte) bool { records = append(records, k); return true }); err != nil {
				t.Fatal(err)
			}
			wantRecords := n
			if b.name == "mem" {
				wantRecords = retain
			}
			if len(records) != wantRecords {
				t.Errorf("journal holds %d records, want %d", len(records), wantRecords)
			}
			for i, id := range ids {
				snap, err := s.Status(id)
				switch {
				case i >= n-retain || b.name == "file":
					if err != nil || snap.State != Done {
						t.Errorf("status %s: %v, %v", id, snap.State, err)
					}
				case !errors.Is(err, errs.ErrNotFound):
					t.Errorf("status of evicted %s: %v, want not found", id, err)
				}
			}
			got := list(t, s, Filter{})
			var listed []JobID
			for _, snap := range got {
				listed = append(listed, snap.ID)
			}
			if want := ids[n-retain:]; !slices.Equal(listed, want) {
				t.Errorf("jobs lists %v, want %v", listed, want)
			}
		})
	}
}

// TestSettleRaces runs two Waits, Status, List and eviction (the submits
// of a small window) against the Wait that settles each job; run it under
// -race.  Every answer is the job's: done with its own result.  A round
// submits two jobs into a window of eight, so no job is evicted before
// its round ends; List meets the settled jobs of earlier rounds as the
// window moves past them.
func TestSettleRaces(t *testing.T) {
	for _, b := range settleBackends {
		t.Run(b.name, func(t *testing.T) {
			s := NewScheduler(2)
			defer s.Close()
			s.SetJournal(b.open(t, s))
			s.SetRetention(8)
			ctx := context.Background()
			for round := 0; round < 40; round++ {
				model := fmt.Sprintf("m%d", round)
				id, err := s.Submit(ctx, "eng", settleExec, solveOn(model))
				if err != nil {
					t.Fatal(err)
				}
				want := solved(model).String()
				var wg sync.WaitGroup
				for g := 0; g < 5; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						switch g {
						case 0, 1:
							res, err := s.Wait(ctx, id)
							if err != nil || res.String() != want {
								t.Errorf("wait %s: %v, %v", id, res, err)
							}
						case 2:
							for {
								snap, err := s.Status(id)
								if err != nil {
									t.Errorf("status %s: %v", id, err)
									return
								}
								if snap.State == Done {
									if snap.Result.String() != want {
										t.Errorf("status %s: result %v", id, snap.Result)
									}
									return
								}
							}
						case 3:
							if _, err := s.List(Filter{}); err != nil {
								t.Errorf("jobs: %v", err)
							}
						case 4:
							if _, err := s.Submit(ctx, "eng", settleExec, command.Store{Model: model}); err != nil {
								t.Errorf("submit: %v", err)
							}
						}
					}()
				}
				within(t, "the racing Waits, Status, List and submit", wg.Wait)
			}
		})
	}
}

// TestLateSettleOfAReplacedJob: a Wait that returns after its job left
// the map settles nothing.  Here recovery has replaced the job with its
// record, found under another id's key and so held in full: settling
// that id would leave it answered by a lookup of its own key, which
// holds nothing.
func TestLateSettleOfAReplacedJob(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	st := store.NewMemStore()
	s.SetJournal(st)
	ctx := context.Background()
	id, err := s.Submit(ctx, "eng", settleExec, command.Store{Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	raw, err := st.Get(store.JobKey(int64(id)))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Batch([]store.Op{store.Del(store.JobKey(int64(id))), store.Put(store.JobKey(int64(id)+100), raw)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RecoverJournal(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.settleLocked(j) // the Wait that looked before the recovery
	s.mu.Unlock()
	if got := settledCount(t, s); got != 0 {
		t.Errorf("%d jobs settled after a late settle of a replaced job, want 0", got)
	}
	if snap, err := s.Status(id); err != nil || snap.State != Done {
		t.Errorf("status of the replaced job: %v, %v; want done", snap.State, err)
	}
}

// TestSettledJobsAnswerAfterClose: Close reads the settled jobs back, so
// once the store has closed too every retained job still answers as it
// did, and a Wait after Close settles nothing.
func TestSettledJobsAnswerAfterClose(t *testing.T) {
	for _, b := range settleBackends {
		t.Run(b.name, func(t *testing.T) {
			s := NewScheduler(1)
			st := b.open(t, s)
			s.SetJournal(st)
			s.SetRetention(4)
			ctx := context.Background()
			var ids []JobID
			for i := 0; i < 6; i++ {
				id, err := s.Submit(ctx, "eng", settleExec, solveOn("m"))
				if err != nil {
					t.Fatal(err)
				}
				if i != 5 {
					if _, err := waitJob(t, s, id); err != nil {
						t.Fatal(err)
					}
				}
				ids = append(ids, id)
			}
			waitState(t, s, ids[5], Done)
			want := map[JobID]string{}
			for _, id := range ids[2:] {
				want[id] = answers(t, s, id)
			}
			if got := settledCount(t, s); got != 4 {
				t.Fatalf("%d jobs settled before Close, want 4", got)
			}
			s.Close()
			if got := settledCount(t, s); got != 0 {
				t.Errorf("%d jobs settled after Close, want 0", got)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			for _, id := range ids[2:] {
				if got := answers(t, s, id); got != want[id] {
					t.Errorf("%s after Close answers\n%s\nwant\n%s", id, got, want[id])
				}
			}
			if got := settledCount(t, s); got != 0 {
				t.Errorf("%d jobs settled by waits after Close, want 0", got)
			}
		})
	}
}
