package job

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/fault"
	"repro/internal/store"
)

// evictFullScanLocked is the retention eviction the scheduler shipped
// with until PR 20, verbatim: rebuild the whole order slice with a map
// lookup per id, and re-journal every evicted record.  It is the oracle
// the head-pop evictLocked is held to — same victims in the same order,
// same order slice afterwards, same journal contents.
func (s *Scheduler) evictFullScanLocked() {
	if s.retain <= 0 || len(s.jobs) <= s.retain {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		if len(s.jobs) > s.retain && j.state.Terminal() {
			// Flush the record to the journal before dropping it from
			// memory, so history survives eviction (and restart): Status
			// and Wait keep answering for evicted ids via the journal.
			s.persistLocked(j)
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// evictSide is one scheduler of the differential pair, with a journal
// that can be made to fail and executors the test releases by hand, so
// every transition of every job is a step of the schedule.
type evictSide struct {
	s   *Scheduler
	mem store.Store
	st  *fault.Store
	in  *fault.Injector
	// started carries the model name of each job as its executor begins;
	// gates holds the channel that lets it finish.
	started chan string
	gates   map[string]chan struct{}
}

func newEvictSide(workers int) *evictSide {
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpPut, Fault: fault.Fault{Err: fault.ErrIO}})
	in.Disarm()
	mem := store.NewMemStore()
	e := &evictSide{
		s: NewScheduler(workers), mem: mem, in: in, st: fault.NewStore(mem, in),
		started: make(chan string, 64), gates: map[string]chan struct{}{},
	}
	e.s.SetJournal(e.st)
	return e
}

// Do is the side's executor: announce the start, then finish when the
// test opens the job's gate or cancels it.
func (e *evictSide) DoHeld(ctx context.Context, cmd command.Command) (command.Result, error) {
	model := cmd.(command.Solve).Model
	e.s.mu.Lock()
	gate := e.gates[model]
	e.s.mu.Unlock()
	e.started <- model
	select {
	case <-gate:
		return &command.SolveResult{Model: model, Set: "l"}, nil
	case <-ctx.Done():
		return nil, errs.Cancelled(ctx)
	}
}

func (e *evictSide) submit(t *testing.T, model string) JobID {
	t.Helper()
	e.s.mu.Lock()
	e.gates[model] = make(chan struct{})
	e.s.mu.Unlock()
	id, err := e.s.Submit(context.Background(), "eng", e, solveOn(model))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// state copies what the two sides must agree on: the retained ids, the
// order queue, and the journal's job records.
func (e *evictSide) state() (ids, order []JobID, journal map[string]string) {
	e.s.mu.Lock()
	for id := range e.s.jobs {
		ids = append(ids, id)
	}
	order = slices.Clone(e.s.order)
	e.s.mu.Unlock()
	slices.Sort(ids)
	journal = map[string]string{}
	e.mem.Seek(store.PrefixJob, func(k string, v []byte) bool {
		journal[k] = string(v)
		return true
	})
	return ids, order, journal
}

// TestEvictionMatchesFullScan drives the head-pop eviction and the old
// full scan through the same seeded schedules — submits, completions in
// random order, cancels of queued and of running jobs, retention shrunk
// and grown mid-run, the journal failing, detached and back — and
// demands after every step the same retained ids, the same order slice
// and the same journal, key for key and byte for byte.
//
// The oracle side runs with retention off and has the full scan applied
// right after each Submit and SetRetention, the two places the scheduler
// evicts.  That is the same eviction the scheduler would have run inside
// the call: every job of the schedule is still live when its Submit
// returns (its executor waits for the test), and eviction writes only
// the evicted jobs' keys, so it commutes with the new job's own record.
func TestEvictionMatchesFullScan(t *testing.T) {
	for _, retain := range []int{1, 2, 7, 64} {
		for seed := int64(1); seed <= 6; seed++ {
			// One failed schedule is enough: the rest would each wait out
			// the same lost start.
			if !t.Run(fmt.Sprintf("retain=%d/seed=%d", retain, seed), func(t *testing.T) {
				runEvictionSchedule(t, retain, seed, 400)
			}) {
				return
			}
		}
	}
}

func runEvictionSchedule(t *testing.T, retain int, seed int64, steps int) {
	const workers = 3
	rng := rand.New(rand.NewSource(seed))
	sides := [2]*evictSide{newEvictSide(workers), newEvictSide(workers)}
	change, oracle := sides[0], sides[1]
	change.s.SetRetention(retain)
	oracle.s.SetRetention(0)
	oracleEvict := func() {
		oracle.s.mu.Lock()
		oracle.s.retain = retain
		oracle.s.evictFullScanLocked()
		oracle.s.retain = 0
		oracle.s.mu.Unlock()
	}
	// The test's own model of the live jobs: nextLocked starts the oldest
	// queued job whenever a slot is free (every job has its own model),
	// so which job starts next is known, and each step waits for it.
	type liveJob struct {
		id    JobID
		model string
	}
	var running, queued []liveJob
	awaitStarts := func() {
		for len(running) < workers && len(queued) > 0 {
			next := queued[0]
			queued = queued[1:]
			for _, e := range sides {
				var got string
				within(t, next.model+"'s start", func() { got = <-e.started })
				if got != next.model {
					t.Fatalf("%s started, want %s (oldest queued)", got, next.model)
				}
			}
			running = append(running, next)
		}
	}
	finish := func(j liveJob, how func(e *evictSide)) {
		for _, e := range sides {
			how(e)
			done := doneOf(t, e.s, j.id)
			within(t, j.id.String()+"'s end", func() { <-done })
			// done closes before finishLocked's journal write; the
			// scheduler's mutex orders the check below after it.
		}
	}
	check := func(step int, what string) {
		t.Helper()
		ids, order, journal := change.state()
		wantIDs, wantOrder, wantJournal := oracle.state()
		if !slices.Equal(ids, wantIDs) {
			t.Fatalf("step %d (%s): retained ids %v, full scan keeps %v", step, what, ids, wantIDs)
		}
		if !slices.Equal(order, wantOrder) {
			t.Fatalf("step %d (%s): order %v, full scan leaves %v", step, what, order, wantOrder)
		}
		if len(journal) != len(wantJournal) {
			t.Fatalf("step %d (%s): journal holds %d records, full scan's holds %d", step, what, len(journal), len(wantJournal))
		}
		for k, want := range wantJournal {
			if got, ok := journal[k]; !ok || got != want {
				t.Fatalf("step %d (%s): journal record %s\n got %s\nwant %s", step, what, k, got, want)
			}
		}
	}

	attached := true
	for step := 0; step < steps; step++ {
		var what string
		switch p := rng.Intn(100); {
		case p < 45 && len(running)+len(queued) < 12:
			model := fmt.Sprintf("m%d", step)
			what = "submit " + model
			id := change.submit(t, model)
			if got := oracle.submit(t, model); got != id {
				t.Fatalf("step %d: ids diverged: %v vs %v", step, id, got)
			}
			oracleEvict()
			queued = append(queued, liveJob{id, model})
		case p < 80 && len(running) > 0:
			k := rng.Intn(len(running))
			j := running[k]
			running = slices.Delete(running, k, k+1)
			what = fmt.Sprintf("complete %v", j.id)
			finish(j, func(e *evictSide) { close(e.gates[j.model]) })
		case p < 84 && len(running) > 0:
			k := rng.Intn(len(running))
			j := running[k]
			running = slices.Delete(running, k, k+1)
			what = fmt.Sprintf("cancel running %v", j.id)
			finish(j, func(e *evictSide) {
				if st, err := e.s.Cancel(j.id); err != nil || st != Running {
					t.Fatalf("cancel running %v = %v, %v", j.id, st, err)
				}
			})
		case p < 90 && len(queued) > 0:
			k := rng.Intn(len(queued))
			j := queued[k]
			queued = slices.Delete(queued, k, k+1)
			what = fmt.Sprintf("cancel queued %v", j.id)
			finish(j, func(e *evictSide) {
				if st, err := e.s.Cancel(j.id); err != nil || st != Cancelled {
					t.Fatalf("cancel queued %v = %v, %v", j.id, st, err)
				}
			})
		case p < 93:
			retain = []int{1, 2, 7, 64}[rng.Intn(4)]
			what = fmt.Sprintf("retention %d", retain)
			change.s.SetRetention(retain)
			oracleEvict()
		case p < 97:
			what = "journal fails"
			arm := rng.Intn(2) == 0
			if !arm {
				what = "journal recovers"
			}
			for _, e := range sides {
				if arm {
					e.in.Arm()
				} else {
					e.in.Disarm()
				}
			}
		default:
			attached = !attached
			what = fmt.Sprintf("journal attached=%v", attached)
			for _, e := range sides {
				if attached {
					e.s.SetJournal(e.st)
				} else {
					e.s.SetJournal(nil)
				}
			}
		}
		if what == "" {
			continue
		}
		awaitStarts()
		check(step, what)
	}
	for _, e := range sides {
		e.s.Close()
	}
}

// doneOf is the done channel of a job in the map, read under the lock
// finishLocked replaces it under.
func doneOf(t *testing.T, s *Scheduler, id JobID) chan struct{} {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		t.Fatalf("%v is live but not in the job map", id)
	}
	return j.done
}

// TestEvictionPassesOverStaleIDs: an id in order with no job in the map
// is a settled job's, here one with no record behind it.  It counts
// against the bound and is dropped when eviction reaches it, as the full
// scan dropped it; the order left is the same.
func TestEvictionPassesOverStaleIDs(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	s.SetRetention(2)
	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return &command.ListResult{}, nil
	})
	s.mu.Lock()
	s.order = append(s.order, 901, 902)
	s.mu.Unlock()
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(context.Background(), "eng", ex, command.List{What: command.ListDB}); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The first two submits evicted the stale heads, the third job-1 and
	// the fourth job-2.
	if want := []JobID{3, 4}; !slices.Equal(s.order, want) {
		t.Errorf("order = %v, want %v: the stale ids dropped before the first job", s.order, want)
	}
}

// TestEvictionExaminesOnlyItsVictims is the scaling guard, and reads no
// clock: once the retention window is full, a submit looks at one entry
// of order per record it evicts plus the live jobs it passes over — not
// at the window.  (The full scan looked at all of it: 4096 map lookups
// under the scheduler mutex per submit at the default retention.)
func TestEvictionExaminesOnlyItsVictims(t *testing.T) {
	cheap := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return &command.ListResult{}, nil
	})
	for _, retain := range []int{256, 16384} {
		t.Run(fmt.Sprintf("retain=%d", retain), func(t *testing.T) {
			const live = 3
			s := NewScheduler(live)
			defer s.Close()
			s.SetRetention(retain)
			ctx := context.Background()
			submitCheap := func() {
				t.Helper()
				if _, err := s.Submit(ctx, "eng", cheap, command.List{What: command.ListDB}); err != nil {
					t.Fatal(err)
				}
			}
			// Half a window of history, then three jobs that stay live for
			// the rest of the test, then enough traffic to carry them to the
			// head of order and keep them there.
			for i := 0; i < retain/2; i++ {
				submitCheap()
			}
			started, release := make(chan struct{}, live), make(chan struct{})
			for i := 0; i < live; i++ {
				if _, err := s.Submit(ctx, "eng", blockingExec(started, release), solveOn(fmt.Sprintf("m%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < live; i++ {
				within(t, "the job's start", func() { <-started })
			}
			defer close(release)
			for i := 0; i < retain; i++ {
				submitCheap()
			}
			s.mu.Lock()
			if got := s.order[:live]; !slices.Equal(got, []JobID{JobID(retain/2 + 1), JobID(retain/2 + 2), JobID(retain/2 + 3)}) {
				t.Fatalf("head of order = %v, want the three live jobs", got)
			}
			s.mu.Unlock()
			for i := 0; i < 100; i++ {
				s.mu.Lock()
				before, records := s.orderExamined, len(s.jobs)
				s.mu.Unlock()
				submitCheap()
				s.mu.Lock()
				examined, after := s.orderExamined-before, len(s.jobs)
				s.mu.Unlock()
				if examined > 1+live {
					t.Fatalf("a steady-state submit examined %d entries of order, want <= 1 + %d live jobs (window %d)", examined, live, retain)
				}
				if after != records {
					t.Fatalf("a steady-state submit took the job map from %d to %d records", records, after)
				}
			}
		})
	}
}

// TestEvictionJournalsAfterFailedTerminalWrite: "history survives
// eviction" holds for the job whose terminal record the store refused —
// eviction writes it once the store is back — while a job whose terminal
// record is already durable is dropped without a second write.
func TestEvictionJournalsAfterFailedTerminalWrite(t *testing.T) {
	// The rule never fires on its own schedule; the injector is there to
	// count Puts.  Failing is switched on and off around one job.
	fail := fault.NewInjector(1, fault.Rule{Op: fault.OpPut, Fault: fault.Fault{Err: fault.ErrIO}})
	fail.Disarm()
	count := fault.NewInjector(1, fault.Rule{Op: fault.OpPut, After: 1 << 30, Fault: fault.Fault{Err: fault.ErrIO}})
	mem := store.NewMemStore()
	s := NewScheduler(1)
	defer s.Close()
	if _, err := s.AttachJournal(fault.NewStore(fault.NewStore(mem, fail), count)); err != nil {
		t.Fatal(err)
	}
	s.SetRetention(1)

	runN(t, s, 1) // job-1: both records durable
	fail.Arm()
	runN(t, s, 1) // job-2: neither record reaches the store (and job-1's eviction needs no write)
	fail.Disarm()
	if got := s.JournalErrors(); got != 2 {
		t.Fatalf("JournalErrors() = %d after one job under a failing store, want 2 (queued + terminal)", got)
	}
	if _, err := mem.Get(store.JobKey(2)); err == nil {
		t.Fatal("job-2 has a journal record although every write of it failed")
	}

	puts := count.Calls(fault.OpPut)
	runN(t, s, 1) // job-3 evicts job-2, whose record must be written now
	if got := count.Calls(fault.OpPut) - puts; got != 3 {
		t.Errorf("job-3 made %d journal writes, want 3: its own two and job-2's at eviction", got)
	}
	snap, err := s.Status(2)
	if err != nil {
		t.Fatalf("Status(job-2) after eviction: %v (its record was never journaled)", err)
	}
	if snap.State != Done || snap.Result == nil {
		t.Errorf("job-2 from the journal = %v with result %v, want done with its result", snap.State, snap.Result)
	}

	puts = count.Calls(fault.OpPut)
	runN(t, s, 1) // job-4 evicts job-3, already durable
	if got := count.Calls(fault.OpPut) - puts; got != 2 {
		t.Errorf("job-4 made %d journal writes, want 2: evicting job-3 needs none", got)
	}
	if snap, err := s.Status(3); err != nil || snap.State != Done {
		t.Errorf("Status(job-3) after eviction = %+v, %v", snap, err)
	}
	var keys []string
	mem.Seek(store.PrefixJob, func(k string, v []byte) bool { keys = append(keys, k); return true })
	sort.Strings(keys)
	if want := []string{store.JobKey(1), store.JobKey(2), store.JobKey(3), store.JobKey(4)}; !slices.Equal(keys, want) {
		t.Errorf("journal keys = %v, want %v", keys, want)
	}
}
