package store

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/errs"
)

// Reopen must read back everything a previous instance wrote —
// the reopen-reads-own-writes leg of the conformance contract.
func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "re.db")
	s, err := OpenFileStoreWith(path, FileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete("k010")
	s.Put("k020", []byte("rewritten"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStoreWith(path, FileOpts{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if _, err := s2.Get("k010"); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("deleted key resurrected after reopen: %v", err)
	}
	if v, err := s2.Get("k020"); err != nil || string(v) != "rewritten" {
		t.Errorf("k020 = %q, %v after reopen", v, err)
	}
	n := 0
	s2.Seek("k", func(string, []byte) bool { n++; return true })
	if n != 49 {
		t.Errorf("reopened store has %d keys, want 49", n)
	}
}

// TestFileStoreShortBatchAfterALongOne frames a short batch in the buffer
// a long one left behind: what Get reads, what the file replays to on
// reopen and the frames appendFrame writes into no reused buffer agree.
func TestFileStoreShortBatchAfterALongOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frames.db")
	s, err := OpenFileStoreWith(path, FileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	long := []Op{Put("m:long", bytes.Repeat([]byte("L"), 40<<10)), Put("m:other", bytes.Repeat([]byte("o"), 300)), Del("m:none")}
	short := []Op{Put("m:s", []byte("short")), Del("m:other")}
	want := map[string]string{"m:long": string(long[0].Value), "m:s": "short"}
	for _, ops := range [][]Op{long, short} {
		if err := s.Batch(ops); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, s *FileStore) {
		t.Helper()
		got := map[string]string{}
		if err := s.Seek("", func(k string, v []byte) bool { got[k] = string(v); return true }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the store holds %d keys, want %v", when, len(got), slices.Sorted(maps.Keys(want)))
		}
		for k, v := range want {
			if g, err := s.Get(k); err != nil || string(g) != v {
				t.Fatalf("%s: Get(%s) = %d bytes, %v", when, k, len(g), err)
			}
		}
	}
	check("after the batches", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	log := append(append([]byte(fileMagic), appendFrame(nil, long)...), appendFrame(nil, short)...)
	if !bytes.Equal(raw, log) {
		t.Fatalf("the log is %d bytes, two fresh frames %d: they differ", len(raw), len(log))
	}
	s, err = OpenFileStoreWith(path, FileOpts{CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check("after reopen", s)
}

// A torn tail — the partial frame a kill -9 mid-write leaves — must be
// truncated on open, preserving every complete frame before it.
func TestFileStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	for _, cut := range []int64{1, 3, 7, 15} { // chop mid-frame at several depths
		path := filepath.Join(dir, fmt.Sprintf("torn-%d.db", cut))
		s, err := OpenFileStoreWith(path, FileOpts{})
		if err != nil {
			t.Fatal(err)
		}
		s.Put("good", []byte("survives"))
		// An atomic batch that will be half-destroyed below.
		s.Batch([]Op{Put("b1", []byte("x")), Put("b2", []byte("y"))})
		s.Close()

		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()-cut); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenFileStoreWith(path, FileOpts{})
		if err != nil {
			t.Fatalf("open after %d-byte tear: %v", cut, err)
		}
		if v, err := s2.Get("good"); err != nil || string(v) != "survives" {
			t.Fatalf("after tear %d: good = %q, %v", cut, v, err)
		}
		// The torn batch must vanish atomically: b1 and b2 together.
		_, e1 := s2.Get("b1")
		_, e2 := s2.Get("b2")
		if errors.Is(e1, errs.ErrNotFound) != errors.Is(e2, errs.ErrNotFound) {
			t.Fatalf("after tear %d: torn batch applied partially (b1: %v, b2: %v)", cut, e1, e2)
		}
		s2.Close()
	}
}

// Corrupting bytes inside the last frame (not just truncating) must
// fail its CRC and drop it.
func TestFileStoreCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crc.db")
	s, _ := OpenFileStoreWith(path, FileOpts{})
	s.Put("keep", []byte("ok"))
	s.Put("doomed", []byte("corrupted-below"))
	s.Close()

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	if _, err := f.WriteAt([]byte{0xde, 0xad}, info.Size()-10); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenFileStoreWith(path, FileOpts{})
	if err != nil {
		t.Fatalf("open after corruption: %v", err)
	}
	defer s2.Close()
	if v, err := s2.Get("keep"); err != nil || string(v) != "ok" {
		t.Errorf("keep = %q, %v", v, err)
	}
	if _, err := s2.Get("doomed"); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("corrupt frame survived: %v", err)
	}
}

// Compaction on open: a log dominated by dead bytes is rewritten to
// just its live records, and the result reads identically.
func TestFileStoreCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.db")
	s, _ := OpenFileStoreWith(path, FileOpts{})
	big := make([]byte, 8192)
	for i := range big {
		big[i] = byte(i)
	}
	// 40 generations of overwrites of the same 4 keys: ~39/40 garbage.
	for gen := 0; gen < 40; gen++ {
		for k := 0; k < 4; k++ {
			s.Put(fmt.Sprintf("key%d", k), append(big, byte(gen), byte(k)))
		}
	}
	s.Close()
	before, _ := os.Stat(path)

	s2, err := OpenFileStoreWith(path, FileOpts{})
	if err != nil {
		t.Fatalf("open-with-compaction: %v", err)
	}
	defer s2.Close()
	after, _ := os.Stat(path)
	if after.Size() >= before.Size()/2 {
		t.Errorf("compaction did not shrink the log: %d -> %d bytes", before.Size(), after.Size())
	}
	for k := 0; k < 4; k++ {
		v, err := s2.Get(fmt.Sprintf("key%d", k))
		if err != nil || len(v) != len(big)+2 || v[len(v)-2] != 39 || v[len(v)-1] != byte(k) {
			t.Fatalf("key%d after compaction: len=%d err=%v", k, len(v), err)
		}
	}
	// Writes after compaction land correctly.
	if err := s2.Put("post", []byte("compaction")); err != nil {
		t.Fatal(err)
	}
	if v, _ := s2.Get("post"); string(v) != "compaction" {
		t.Fatal("write after compaction lost")
	}
}

// A file that isn't a store must be refused, not misparsed.
func TestFileStoreBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-store")
	os.WriteFile(path, []byte("#!/bin/sh\necho hi\n"), 0o644)
	if _, err := OpenFileStoreWith(path, FileOpts{}); err == nil {
		t.Fatal("opened a non-store file")
	}
}

// TestFileStoreSparseSeekReadsItsValues seeks two small values with a
// large one between them in the log: Seek reads them alone, not the span
// between, so it reads about their own bytes (rchar in /proc/self/io,
// skipped where that file is missing).
func TestFileStoreSparseSeekReadsItsValues(t *testing.T) {
	readBytes := func() int64 {
		stats, err := os.ReadFile("/proc/self/io")
		if err != nil {
			t.Skip("no /proc/self/io")
		}
		_, line, _ := bytes.Cut(stats, []byte("rchar: "))
		line, _, _ = bytes.Cut(line, []byte("\n"))
		n, err := strconv.ParseInt(string(line), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	s, err := OpenFileStoreWith(filepath.Join(t.TempDir(), "sparse.db"), FileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, op := range []Op{Put("m:a", []byte("first")), Put("x:big", make([]byte, 64<<10)), Put("m:b", []byte("second"))} {
		if err := s.Batch([]Op{op}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	before := readBytes()
	err = s.Seek("m:", func(k string, v []byte) bool { got = append(got, k+"="+string(v)); return true })
	read := readBytes() - before
	if err != nil || !slices.Equal(got, []string{"m:a=first", "m:b=second"}) {
		t.Fatalf("Seek(m:) = %q, %v", got, err)
	}
	// The second reading of /proc/self/io counts itself: a few hundred
	// bytes.
	if read > 4<<10 {
		t.Errorf("Seek of two values 64 KiB apart read %d bytes", read)
	}
}
