package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Satellite: the compaction threshold is configuration, not a constant.
// A small CompactAt compacts a log the default 64 KiB floor would leave
// alone; a negative CompactAt leaves alone a log the default would
// rewrite.
func TestFileStoreCompactAtCustom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "small.db")
	s, _ := OpenFileStoreWith(path, FileOpts{})
	val := make([]byte, 1024)
	// 10 generations over 4 keys: ~36 KiB garbage — under the default
	// floor, over a 2 KiB one.
	for gen := 0; gen < 10; gen++ {
		for k := 0; k < 4; k++ {
			s.Put(fmt.Sprintf("key%d", k), val)
		}
	}
	s.Close()
	before, _ := os.Stat(path)

	s2, err := OpenFileStoreWith(path, FileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	unchanged, _ := os.Stat(path)
	if unchanged.Size() != before.Size() {
		t.Fatalf("default threshold compacted %d bytes of garbage (%d -> %d); the floor moved",
			before.Size(), before.Size(), unchanged.Size())
	}

	s3, err := OpenFileStoreWith(path, FileOpts{CompactAt: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	after, _ := os.Stat(path)
	if after.Size() >= before.Size()/2 {
		t.Errorf("CompactAt=2048 did not compact: %d -> %d bytes", before.Size(), after.Size())
	}
	for k := 0; k < 4; k++ {
		if v, err := s3.Get(fmt.Sprintf("key%d", k)); err != nil || len(v) != len(val) {
			t.Fatalf("key%d after compaction: len=%d err=%v", k, len(v), err)
		}
	}
}

func TestFileStoreCompactAtSuppressed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nocompact.db")
	s, _ := OpenFileStoreWith(path, FileOpts{})
	val := make([]byte, 8192)
	// ~600 KiB of garbage: far past the default floor.
	for gen := 0; gen < 20; gen++ {
		for k := 0; k < 4; k++ {
			s.Put(fmt.Sprintf("key%d", k), val)
		}
	}
	s.Close()
	before, _ := os.Stat(path)

	s2, err := OpenFileStoreWith(path, FileOpts{CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	after, _ := os.Stat(path)
	if after.Size() != before.Size() {
		t.Fatalf("CompactAt=-1 still compacted: %d -> %d bytes", before.Size(), after.Size())
	}

	// The garbage was real: a default open rewrites it.
	s3, err := OpenFileStoreWith(path, FileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s3.Close()
	compacted, _ := os.Stat(path)
	if compacted.Size() >= before.Size()/2 {
		t.Errorf("default open did not compact the control log: %d -> %d bytes",
			before.Size(), compacted.Size())
	}
}

// sharedPair opens two shared-mode handles on one store file — two
// daemons of a cluster, in-process.
func sharedPair(t *testing.T) (a, b *FileStore) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shared.db")
	var err error
	if a, err = OpenFileStoreWith(path, FileOpts{Shared: true}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if b, err = OpenFileStoreWith(path, FileOpts{Shared: true}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

// Shared mode: one handle's committed writes become visible to the
// other after Refresh, and only after (each handle indexes the log
// independently).
func TestFileStoreSharedRefreshVisibility(t *testing.T) {
	a, b := sharedPair(t)
	if err := a.Put("k", []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("b saw a's write without Refresh: %v", err)
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	if v, err := b.Get("k"); err != nil || string(v) != "from-a" {
		t.Fatalf("b after Refresh: %q, %v", v, err)
	}
	// And the other direction: b appends, a refreshes.
	if err := b.Put("k2", []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if v, err := a.Get("k2"); err != nil || string(v) != "from-b" {
		t.Fatalf("a after Refresh: %q, %v", v, err)
	}
}

// Shared BatchIf is the cluster's arbitration primitive: the compare
// runs against the *file's* current state under the file lock, so a
// handle that has not refreshed since the other wrote still loses the
// race — exactly what keeps two contenders from both taking a lease.
func TestFileStoreSharedBatchIfArbitrates(t *testing.T) {
	a, b := sharedPair(t)
	if err := a.BatchIf("lease", nil, []Op{Put("lease", []byte("1"))}); err != nil {
		t.Fatalf("a acquires: %v", err)
	}
	// b, fully refreshed, takes over.
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := b.BatchIf("lease", []byte("1"), []Op{Put("lease", []byte("2"))}); err != nil {
		t.Fatalf("b takes over: %v", err)
	}
	// a still believes the lease says "1"; its conditional write must
	// lose even though its in-memory index agrees with the stale want.
	err := a.BatchIf("lease", []byte("1"), []Op{Put("lease", []byte("3"))})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("a's stale CAS = %v, want ErrConflict", err)
	}
	if v, _ := a.Get("lease"); string(v) != "2" {
		t.Fatalf("lease = %q after failed CAS, want 2 (a refreshed under the lock)", v)
	}
}

// Seal is the takeover step: the dead leader's torn tail — bytes past
// the last complete frame, which a live writer would still be holding
// the file lock over — is truncated so the new leader appends cleanly.
func TestFileStoreSealTruncatesDeadWritersTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seal.db")
	a, err := OpenFileStoreWith(path, FileOpts{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("k", []byte("good")); err != nil {
		t.Fatal(err)
	}
	b, err := OpenFileStoreWith(path, FileOpts{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Close() // the "leader" dies...
	// ...mid-append: raw junk lands past the last complete frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	sealed, _ := os.Stat(path)
	if _, err := f.Write(bytes.Repeat([]byte{0xEE}, 13)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := b.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	after, _ := os.Stat(path)
	if after.Size() != sealed.Size() {
		t.Fatalf("Seal left %d bytes, want %d (torn tail gone)", after.Size(), sealed.Size())
	}
	if v, err := b.Get("k"); err != nil || string(v) != "good" {
		t.Fatalf("k after Seal: %q, %v", v, err)
	}
	if err := b.Put("k2", []byte("new-leader")); err != nil {
		t.Fatalf("write after Seal: %v", err)
	}
	// The new write is a well-formed frame: a third handle replays both.
	c, err := OpenFileStoreWith(path, FileOpts{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, err := c.Get("k2"); err != nil || string(v) != "new-leader" {
		t.Fatalf("k2 via fresh handle: %q, %v", v, err)
	}
}

// MemStore.BatchIf pins the compare semantics the cluster relies on:
// nil want means "key absent", and a present-but-empty value is not
// absent.
func TestMemStoreBatchIf(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	if err := s.BatchIf("k", nil, []Op{Put("k", []byte("v1"))}); err != nil {
		t.Fatalf("create-if-absent: %v", err)
	}
	if err := s.BatchIf("k", nil, []Op{Put("k", []byte("v2"))}); !errors.Is(err, ErrConflict) {
		t.Fatalf("create over existing = %v, want ErrConflict", err)
	}
	if err := s.BatchIf("k", []byte("wrong"), []Op{Put("k", []byte("v2"))}); !errors.Is(err, ErrConflict) {
		t.Fatalf("wrong want = %v, want ErrConflict", err)
	}
	if err := s.BatchIf("k", []byte("v1"), []Op{Put("k", []byte{})}); err != nil {
		t.Fatalf("matching want: %v", err)
	}
	// k now holds an empty (non-nil on the wire) value: want nil must
	// not match it, want empty must.
	if err := s.BatchIf("k", nil, []Op{Put("k", []byte("x"))}); !errors.Is(err, ErrConflict) {
		t.Fatalf("nil want matched empty value; absent and empty conflated")
	}
	if err := s.BatchIf("k", []byte{}, []Op{Del("k")}); err != nil {
		t.Fatalf("empty want over empty value: %v", err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatal("Del op inside BatchIf did not apply")
	}
}
