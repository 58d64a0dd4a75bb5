// Package storetest is the executable store contract: the conformance
// suite every store.Store implementation must pass, packaged so any
// backend — the built-in three, a degradation guard, a fault-injection
// wrapper with its weather disarmed — can be held to the identical
// standard from its own test file.
package storetest

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/errs"
	"repro/internal/store"
)

// Run drives the full conformance suite against the implementation
// `open` builds.  open is called once per sub-test, so each property is
// checked on a fresh store.
func Run(t *testing.T, open func(t *testing.T) store.Store) {
	t.Run("get-put-delete", func(t *testing.T) { GetPutDelete(t, open(t)) })
	t.Run("has", func(t *testing.T) { Has(t, open(t)) })
	t.Run("seek-prefix-order", func(t *testing.T) { SeekPrefixOrder(t, open(t)) })
	t.Run("batch-atomic", func(t *testing.T) { Batch(t, open(t)) })
	t.Run("closed", func(t *testing.T) { Closed(t, open(t)) })
	t.Run("caller-owns-buffers", func(t *testing.T) { BufferOwnership(t, open(t)) })
}

// GetPutDelete pins the basic read/write contract: missing keys report
// ErrNotFound, overwrites land, empty values round-trip, deletes of
// missing keys are no-ops.
func GetPutDelete(t *testing.T, s store.Store) {
	defer s.Close()
	if _, err := s.Get("missing"); !errors.Is(err, errs.ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	if err := s.Put("k", []byte("v1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v, err := s.Get("k"); err != nil || string(v) != "v1" {
		t.Fatalf("Get(k) = %q, %v, want v1", v, err)
	}
	if err := s.Put("k", []byte("v2")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if v, _ := s.Get("k"); string(v) != "v2" {
		t.Fatalf("Get after overwrite = %q, want v2", v)
	}
	// Empty values round-trip (they are puts, not deletes).
	if err := s.Put("empty", nil); err != nil {
		t.Fatalf("Put empty: %v", err)
	}
	if v, err := s.Get("empty"); err != nil || len(v) != 0 {
		t.Fatalf("Get(empty) = %q, %v, want empty value", v, err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get("k"); !errors.Is(err, errs.ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Fatalf("Delete of missing key = %v, want nil", err)
	}
}

// Has pins the key-only lookup: it sees a put (an empty value too),
// misses a key never written and one deleted, and reports ErrClosed on a
// closed store.
func Has(t *testing.T, s store.Store) {
	has := func(key string, want bool) {
		t.Helper()
		if ok, err := s.Has(key); ok != want || err != nil {
			t.Fatalf("Has(%s) = %v, %v, want %v", key, ok, err, want)
		}
	}
	has("k", false)
	if err := s.Batch([]store.Op{store.Put("k", []byte("v")), store.Put("empty", nil)}); err != nil {
		t.Fatalf("Batch: %v", err)
	}
	has("k", true)
	has("empty", true)
	if err := s.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	has("k", false)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Has("empty"); !errors.Is(err, store.ErrClosed) {
		t.Errorf("Has after close = %v, want ErrClosed", err)
	}
}

// SeekPrefixOrder pins prefix iteration: ascending byte order, early
// stop, no sibling-family leakage, empty prefix sees everything.
func SeekPrefixOrder(t *testing.T, s store.Store) {
	defer s.Close()
	// Inserted out of order; Seek must return ascending byte order.
	for _, k := range []string{"m:plate", "m:beam", "s:beam:00000002", "s:beam:00000001", "j:0001", "m:arch"} {
		if err := s.Put(k, []byte("v-"+k)); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	var got []string
	if err := s.Seek("m:", func(k string, v []byte) bool {
		if string(v) != "v-"+k {
			t.Errorf("Seek value for %s = %q", k, v)
		}
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	want := []string{"m:arch", "m:beam", "m:plate"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Seek(m:) = %v, want %v", got, want)
	}
	// Early stop.
	n := 0
	s.Seek("m:", func(string, []byte) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Seek early-stop visited %d keys, want 1", n)
	}
	// Prefix with trailing separator does not leak sibling families.
	var sol []string
	s.Seek("s:beam:", func(k string, _ []byte) bool { sol = append(sol, k); return true })
	want = []string{"s:beam:00000001", "s:beam:00000002"}
	if fmt.Sprint(sol) != fmt.Sprint(want) {
		t.Fatalf("Seek(s:beam:) = %v, want %v", sol, want)
	}
	// Empty prefix sees everything.
	n = 0
	s.Seek("", func(string, []byte) bool { n++; return true })
	if n != 6 {
		t.Fatalf("Seek(\"\") visited %d keys, want 6", n)
	}
}

// Batch pins batch semantics: all ops of a successful batch are
// visible together.
func Batch(t *testing.T, s store.Store) {
	defer s.Close()
	s.Put("a", []byte("old"))
	s.Put("gone", []byte("x"))
	err := s.Batch([]store.Op{
		store.Put("a", []byte("new")),
		store.Put("b", []byte("2")),
		store.Del("gone"),
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if v, _ := s.Get("a"); string(v) != "new" {
		t.Fatalf("a = %q after batch", v)
	}
	if v, _ := s.Get("b"); string(v) != "2" {
		t.Fatalf("b = %q after batch", v)
	}
	if _, err := s.Get("gone"); !errors.Is(err, errs.ErrNotFound) {
		t.Fatalf("gone still present after batch delete: %v", err)
	}
}

// Closed pins the lifecycle contract: every method on a closed store
// reports ErrClosed, including a second Close.
func Closed(t *testing.T, s store.Store) {
	s.Put("k", []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Get("k"); !errors.Is(err, store.ErrClosed) {
		t.Errorf("Get after close = %v, want ErrClosed", err)
	}
	if err := s.Put("k", nil); !errors.Is(err, store.ErrClosed) {
		t.Errorf("Put after close = %v, want ErrClosed", err)
	}
	if err := s.Delete("k"); !errors.Is(err, store.ErrClosed) {
		t.Errorf("Delete after close = %v, want ErrClosed", err)
	}
	if err := s.Seek("", func(string, []byte) bool { return true }); !errors.Is(err, store.ErrClosed) {
		t.Errorf("Seek after close = %v, want ErrClosed", err)
	}
	if err := s.Batch([]store.Op{store.Put("k", nil)}); !errors.Is(err, store.ErrClosed) {
		t.Errorf("Batch after close = %v, want ErrClosed", err)
	}
	if err := s.Close(); !errors.Is(err, store.ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
}

// BufferOwnership pins that the store copies on both sides of the API:
// callers may scribble on Put buffers and Get results freely.
func BufferOwnership(t *testing.T, s store.Store) {
	defer s.Close()
	buf := []byte("original")
	s.Put("k", buf)
	copy(buf, "CLOBBER!")
	if v, _ := s.Get("k"); string(v) != "original" {
		t.Fatalf("store kept a reference to the caller's Put buffer: %q", v)
	}
	v1, _ := s.Get("k")
	copy(v1, "SCRIBBLE")
	if v2, _ := s.Get("k"); string(v2) != "original" {
		t.Fatalf("mutating a Get result corrupted the store: %q", v2)
	}
	// A Batch after a longer Batch: a store that builds its writes in a
	// buffer it reuses keeps no byte of the first in the second.
	if err := s.Batch([]store.Op{store.Put("long", []byte("a much longer value")), store.Put("k2", []byte("second"))}); err != nil {
		t.Fatalf("long Batch: %v", err)
	}
	if err := s.Batch([]store.Op{store.Put("k2", []byte("2nd"))}); err != nil {
		t.Fatalf("short Batch: %v", err)
	}
	for k, want := range map[string]string{"k": "original", "long": "a much longer value", "k2": "2nd"} {
		if v, err := s.Get(k); err != nil || string(v) != want {
			t.Fatalf("after a Batch after a longer Batch, Get(%s) = %q, %v, want %q", k, v, err, want)
		}
	}
}
