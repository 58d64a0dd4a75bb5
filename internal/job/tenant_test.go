package job

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/command"
	"repro/internal/errs"
)

// blockingExec returns an executor that parks every job until release
// closes, signalling each start on started.
func blockingExec(started chan struct{}, release chan struct{}) execFunc {
	return func(ctx context.Context, cmd command.Command) (command.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return &command.SolveResult{}, nil
		case <-ctx.Done():
			return nil, errs.Cancelled(ctx)
		}
	}
}

func TestQuotaRejectPolicy(t *testing.T) {
	s := NewScheduler(4)
	defer s.Close()
	s.SetQuota(2)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	defer close(release)
	ex := blockingExec(started, release)

	var ids []JobID
	for i := 0; i < 2; i++ {
		id, err := s.Submit(context.Background(), "alice", ex, solveOn(fmt.Sprintf("m%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Third submission by the saturated owner is rejected outright...
	if _, err := s.Submit(context.Background(), "alice", ex, solveOn("m2")); !errors.Is(err, ErrQuota) {
		t.Errorf("Submit over quota = %v, want ErrQuota", err)
	}
	// ...while another tenant is unaffected.
	if _, err := s.Submit(context.Background(), "bob", ex, solveOn("m3")); err != nil {
		t.Errorf("other tenant hit alice's quota: %v", err)
	}
	// A freed slot readmits the owner.
	if st, err := s.Cancel(ids[0]); err != nil || st.Terminal() && st != Cancelled {
		t.Fatalf("Cancel = %v, %v", st, err)
	}
	waitState(t, s, ids[0], Cancelled)
	if _, err := s.Submit(context.Background(), "alice", ex, solveOn("m4")); err != nil {
		t.Errorf("Submit after slot freed = %v", err)
	}
}

// TestSubscribeEventOrder proves the notification stream delivers the
// queued → running → done trail, in order, and that unsubscribing
// stops it.
func TestSubscribeEventOrder(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()

	var mu sync.Mutex
	events := map[JobID][]State{}
	unsub := s.Subscribe("alice", func(snap Snapshot) {
		mu.Lock()
		events[snap.ID] = append(events[snap.ID], snap.State)
		mu.Unlock()
	})

	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return &command.SolveResult{}, nil
	})
	id, err := s.Submit(context.Background(), "alice", ex, solveOn("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitJob(t, s, id); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, Done)

	mu.Lock()
	got := append([]State(nil), events[id]...)
	mu.Unlock()
	want := []State{Queued, Running, Done}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}

	unsub()
	id2, _ := s.Submit(context.Background(), "alice", ex, solveOn("b"))
	waitJob(t, s, id2)
	mu.Lock()
	defer mu.Unlock()
	if len(events[id2]) != 0 {
		t.Errorf("received %v after unsubscribe", events[id2])
	}
}

// TestSubscribeSeesCancelledQueuedJob: a job cancelled before it runs
// still produces a terminal notification.
func TestSubscribeSeesCancelledQueuedJob(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	var mu sync.Mutex
	var states []State
	s.Subscribe("alice", func(snap Snapshot) {
		mu.Lock()
		states = append(states, snap.State)
		mu.Unlock()
	})

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	ex := blockingExec(started, release)
	if _, err := s.Submit(context.Background(), "alice", ex, solveOn("a")); err != nil {
		t.Fatal(err)
	}
	within(t, "the job's start", func() { <-started })
	q, err := s.Submit(context.Background(), "alice", ex, solveOn("a")) // same model: must queue
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	states = nil // keep only the cancelled job's trail from here
	mu.Unlock()
	if _, err := s.Cancel(q); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(states) != 1 || states[0] != Cancelled {
		t.Errorf("cancelled-queued trail = %v, want [cancelled]", states)
	}
}

// TestSubscribeHearsOnlyItsOwner: a subscriber for alice receives every
// transition of her jobs and none of bob's, and bob's jobs — his one
// subscriber left before they ran — hand nobody a Snapshot.  publish
// builds a Snapshot only to pass it to subscribers, so what the hooks
// below count is every Snapshot built.
func TestSubscribeHearsOnlyItsOwner(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	var mu sync.Mutex
	heard := map[string][]string{} // subscribed owner → owners of the snapshots it got
	hook := func(owner string) func(Snapshot) {
		return func(snap Snapshot) {
			mu.Lock()
			heard[owner] = append(heard[owner], snap.Owner)
			mu.Unlock()
		}
	}
	s.Subscribe("alice", hook("alice"))
	s.Subscribe("carol", hook("carol"))
	s.Subscribe("bob", hook("bob"))()
	s.mu.Lock()
	_, kept := s.subs["bob"]
	s.mu.Unlock()
	if kept {
		t.Error("bob's last unsubscribe left an entry for him")
	}

	ex := execFunc(func(ctx context.Context, cmd command.Command) (command.Result, error) {
		return &command.SolveResult{}, nil
	})
	ctx := context.Background()
	for _, owner := range []string{"bob", "alice", "bob", "alice", "bob"} {
		id, err := s.Submit(ctx, owner, ex, solveOn("a"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitJob(t, s, id); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[string][]string{"alice": {"alice", "alice", "alice", "alice", "alice", "alice"}}
	if fmt.Sprint(heard) != fmt.Sprint(want) {
		t.Errorf("snapshots heard, by subscriber: %v, want alice's two jobs × 3 transitions to alice alone", heard)
	}
}

func TestDrainWaitsForLiveJobs(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	ex := blockingExec(started, release)

	if _, err := s.Submit(context.Background(), "alice", ex, solveOn("a")); err != nil {
		t.Fatal(err)
	}
	within(t, "the job's start", func() { <-started })
	if n := s.Live(); n != 1 {
		t.Errorf("Live = %d, want 1", n)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case <-drained:
		t.Fatal("Drain returned while a job was live")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Errorf("Drain = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned after the last job finished")
	}
	if n := s.Live(); n != 0 {
		t.Errorf("Live after drain = %d, want 0", n)
	}
	// Empty scheduler drains immediately.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("Drain(empty) = %v", err)
	}
}

// TestDrainWaitsForSynchronousHolds: a model held by a synchronous
// command (Hold), and a synchronous solve waiting for it, keep a drain
// waiting as a live job does; the last Release ends it.
func TestDrainWaitsForSynchronousHolds(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	ctx := context.Background()
	if err := s.Hold(ctx, "alice", "a", solveOn("a")); err != nil {
		t.Fatal(err)
	}
	second := make(chan error, 1)
	go func() { second <- s.Hold(ctx, "alice", "a", solveOn("a")) }()
	awaitWaiters(t, s, 1)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	mustWait := func(what string) {
		t.Helper()
		select {
		case err := <-drained:
			t.Fatalf("Drain returned (%v) while %s", err, what)
		case <-time.After(20 * time.Millisecond):
		}
	}
	mustWait("a synchronous command held the model and another waited for it")
	s.Release("alice", "a")
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	mustWait("the waiting command held the model")
	s.Release("alice", "a")
	select {
	case err := <-drained:
		if err != nil {
			t.Errorf("Drain = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned after the last Release")
	}
}

func TestDrainHonoursContext(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	ex := blockingExec(started, release)
	if _, err := s.Submit(context.Background(), "alice", ex, solveOn("a")); err != nil {
		t.Fatal(err)
	}
	within(t, "the job's start", func() { <-started })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("Drain under dead ctx = %v, want ErrCancelled", err)
	}
}
