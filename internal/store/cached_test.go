package store_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// stallingGet is a backend whose armed Get reads its value, then waits
// for release before returning it.
type stallingGet struct {
	store.Store
	armed   atomic.Bool
	read    chan struct{} // closed once the armed Get has read
	release chan struct{}
}

func (b *stallingGet) Get(key string) ([]byte, error) {
	v, err := b.Store.Get(key)
	if b.armed.CompareAndSwap(true, false) {
		close(b.read)
		<-b.release
	}
	return v, err
}

// TestStoreCachedGetRacingPut: a miss that read the backend before a
// racing Put landed must not cache what it read over what the Put cached,
// or every later Get answers the old value until FIFO eviction.
func TestStoreCachedGetRacingPut(t *testing.T) {
	backend := &stallingGet{Store: store.NewMemStore(), read: make(chan struct{}), release: make(chan struct{})}
	c := store.NewCached(backend, 0)
	defer c.Close()
	// Written underneath the cache, so the first Get misses.
	if err := backend.Store.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	backend.armed.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Get("k") // began before the Put: either value is right
	}()
	wait := func(ch chan struct{}) {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("the racing Get stalled")
		}
	}
	wait(backend.read)
	if err := c.Put("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	close(backend.release)
	wait(done)
	v, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "new" {
		t.Errorf(`after put(new) returned, Get = %q (backend holds "new")`, v)
	}
}
