package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/errs"
	"repro/internal/store"
)

// stallingGet is a backend whose armed Get reads its value, then waits
// for release before returning it: the window in which a write can land
// between a read and whatever the reader does with what it read.
type stallingGet struct {
	store.Conditional
	armed   atomic.Bool
	read    chan struct{} // closed once the armed Get has read
	release chan struct{}
}

func (b *stallingGet) Get(key string) ([]byte, error) {
	v, err := b.Conditional.Get(key)
	if b.armed.CompareAndSwap(true, false) {
		close(b.read)
		<-b.release
	}
	return v, err
}

// wait fails t if ch is not closed within a generous bound.
func wait(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestStoreGetRacingPut: a Put that lands while a Get is reading the
// backend wins every Get after it.  A read cache in the stack broke this:
// the Get's late fill put the old value back over the new one, and every
// later Get — a retrieve after another session's store — answered the old
// value until FIFO eviction.
func TestStoreGetRacingPut(t *testing.T) {
	var backend *stallingGet
	sys, err := Open(Options{Arch: arch.DefaultConfig(), Workers: 1, Store: store.Config{
		Wrap: func(c store.Conditional) store.Conditional {
			backend = &stallingGet{Conditional: c, read: make(chan struct{}), release: make(chan struct{})}
			return backend
		}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	key := store.ModelKey("g")
	// Written underneath the stack, so the first Get reads the backend.
	if err := backend.Conditional.Put(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	backend.armed.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sys.Store.Get(key) // began before the Put: either value is right
	}()
	wait(t, backend.read, "the Get to read the backend")
	if err := sys.Store.Put(key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	close(backend.release)
	wait(t, done, "the Get to return")
	held, _ := backend.Conditional.Get(key)
	v, err := sys.Store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != string(held) {
		t.Errorf("after put(new) returned, Get = %q (backend holds %q)", v, held)
	}
}

// TestJournalBoundedByRetention: past the retention window a mem
// daemon's journal holds the retained jobs only, and an evicted id is not
// found; a file daemon's journal keeps every job, durable across a
// reopen, and answers an evicted id from it.
func TestJournalBoundedByRetention(t *testing.T) {
	const retain, jobs = 8, 40
	open := func(t *testing.T, sc store.Config) *System {
		t.Helper()
		sys, err := Open(Options{Arch: arch.DefaultConfig(), Workers: 1, Store: sc})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		return sys
	}
	solveAll := func(t *testing.T, sys *System) {
		t.Helper()
		sys.Jobs.SetRetention(retain)
		s := sys.Session("eng")
		run(t, s, "generate grid plate 4 2 4 2 clamp-left", "load plate tip endload 0 -100")
		for i := 1; i <= jobs; i++ {
			run(t, s, "submit solve plate tip", fmt.Sprintf("wait job-%d", i))
		}
	}
	journal := func(sys *System) (keys []string) {
		sys.Store.Seek(store.PrefixJob, func(k string, _ []byte) bool { keys = append(keys, k); return true })
		return keys
	}
	ids := func(from, to int) (keys []string) {
		for id := from; id <= to; id++ {
			keys = append(keys, store.JobKey(int64(id)))
		}
		return keys
	}

	t.Run("mem", func(t *testing.T) {
		sys := open(t, store.Config{})
		solveAll(t, sys)
		if got, want := journal(sys), ids(jobs-retain+1, jobs); !reflect.DeepEqual(got, want) {
			t.Errorf("journal after %d jobs at retention %d:\n got %v\nwant %v", jobs, retain, got, want)
		}
		if _, err := sys.Session("eng").Execute("status job-1"); !errors.Is(err, errs.ErrNotFound) {
			t.Errorf("status of an evicted job = %v, want not found", err)
		}
		// SetRetention deletes what it evicts.
		sys.Jobs.SetRetention(2)
		if got, want := journal(sys), ids(jobs-1, jobs); !reflect.DeepEqual(got, want) {
			t.Errorf("journal after SetRetention(2): got %v, want %v", got, want)
		}
	})

	t.Run("file", func(t *testing.T) {
		sc := store.Config{Backend: store.BackendFile, Path: filepath.Join(t.TempDir(), "fem2.db")}
		evicted := func(sys *System) {
			t.Helper()
			if out := run(t, sys.Session("eng"), "status job-1"); !strings.Contains(out, "done") {
				t.Errorf("status of an evicted job = %q, want its journal record", out)
			}
		}
		first := open(t, sc)
		solveAll(t, first)
		evicted(first)
		first.Close()
		again := open(t, sc)
		if got, want := journal(again), ids(1, jobs); !reflect.DeepEqual(got, want) {
			t.Errorf("journal after a reopen holds %d records, want all %d", len(got), len(want))
		}
		again.Jobs.SetRetention(retain)
		evicted(again)
	})
}

// TestEvictedJobNotFoundWhileAnotherRuns: on mem at retention 1, the job
// a second submit evicts is gone at once — status, wait and cancel of it
// answer not found while the second job, a 40×24 SOR solve of about ten
// seconds, still runs.  A delete deferred to the next journal write —
// here the second job's terminal record — would leave the evicted job's
// record in the store until then, and status would answer it as done.
func TestEvictedJobNotFoundWhileAnotherRuns(t *testing.T) {
	sys, err := Open(Options{Arch: arch.DefaultConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Jobs.SetRetention(1)
	s := sys.Session("eng")
	run(t, s, "generate grid small 4 2 4 2 clamp-left", "load small tip endload 0 -100",
		"generate grid big 40 24 40 24 clamp-left", "load big tip endload 0 -100",
		"submit solve small tip", "wait job-1", "submit solve big tip method sor")
	for _, line := range []string{"status job-1", "wait job-1", "cancel job-1"} {
		if out, err := s.Execute(line); !errors.Is(err, errs.ErrNotFound) {
			t.Errorf("%s while job-2 runs = %q, %v, want not found", line, out, err)
		}
	}
	if snap, err := sys.Jobs.Status(2); err != nil || snap.State.Terminal() {
		t.Fatalf("job-2 after the lookups: %v, %v, want it still live", snap.State, err)
	}
	if _, err := sys.Jobs.Cancel(2); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Jobs.Wait(context.Background(), 2); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("job-2 after cancel: %v, want cancelled", err)
	}
}
