package store

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// setWindow sets the log's read window to n bytes for the rest of t.
func setWindow(t testing.TB, n int) {
	old := window
	window = n
	t.Cleanup(func() { window = old })
}

// crashLog writes a small log through a FileStore — puts, an overwrite,
// deletes and one multi-op batch — and returns its bytes, the file size
// after each committed batch (ends[0] is the bare magic) and the contents
// the store held then.
func crashLog(t *testing.T) (data []byte, ends []int, states []map[string]string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.db")
	s, err := OpenFileStoreWith(path, FileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batches := [][]Op{
		{Put("m:plate", bytes.Repeat([]byte{0, 'M', 2}, 12))},
		{Put("j:0000000000000001", []byte(`{"id":1,"state":"queued"}`))},
		{Put("m:beam", []byte("beam"))},
		{Put("j:0000000000000001", []byte(`{"id":1,"state":"done"}`))},
		{Del("m:beam")},
		{Put("j:0000000000000002", []byte(`{"id":2}`)), Del("j:0000000000000001"), Put("m:plate", []byte("plate, again")), Put("m:empty", nil), Del("m:none")},
		{Del("m:plate")},
	}
	state := map[string]string{}
	ends = []int{len(fileMagic)}
	states = []map[string]string{maps.Clone(state)}
	for _, b := range batches {
		if err := s.Batch(b); err != nil {
			t.Fatal(err)
		}
		for _, op := range b {
			if op.Delete {
				delete(state, op.Key)
			} else {
				state[op.Key] = string(op.Value)
			}
		}
		ends = append(ends, int(s.size))
		states = append(states, maps.Clone(state))
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if len(data) != ends[len(ends)-1] {
		t.Fatalf("the log is %d bytes, the store says %d", len(data), ends[len(ends)-1])
	}
	return data, ends, states
}

// contents reads every key of s through Seek and checks Get agrees.
func contents(t *testing.T, s *FileStore) map[string]string {
	t.Helper()
	got := map[string]string{}
	if err := s.Seek("", func(k string, v []byte) bool { got[k] = string(v); return true }); err != nil {
		t.Fatal(err)
	}
	for k, v := range got {
		if g, err := s.Get(k); err != nil || string(g) != v {
			t.Fatalf("Get(%q) = %q, %v; Seek gave %q", k, g, err, v)
		}
	}
	return got
}

// TestFileStoreCrashPoints enumerates what a crash or a damaged disk can
// leave of a small log: the file cut at every byte offset, and every byte
// after the magic flipped.  Whatever is left, an exclusive open holds
// exactly the contents after some prefix of the committed batches — all
// of the batches before the first frame the damage touched — and cuts the
// file at that prefix's end; a shared open holds the same, and Seal then
// cuts the file there too.  It runs at the production window and at one
// of a few bytes, where every frame and every value straddles reads.
func TestFileStoreCrashPoints(t *testing.T) {
	for _, w := range []int{windowSize, 3} {
		t.Run(fmt.Sprintf("window=%d", w), func(t *testing.T) {
			setWindow(t, w)
			data, ends, states := crashLog(t)
			dir := t.TempDir()
			// prefix is the last committed batch whose frame ends at or
			// before off.
			prefix := func(off int) int {
				k := 0
				for k+1 < len(ends) && ends[k+1] <= off {
					k++
				}
				return k
			}
			check := func(what string, file []byte, k int) {
				t.Helper()
				wantSize := int64(ends[k])
				for _, shared := range []bool{false, true} {
					path := filepath.Join(dir, "damaged.db")
					if err := os.WriteFile(path, file, 0o644); err != nil {
						t.Fatal(err)
					}
					s, err := OpenFileStoreWith(path, FileOpts{Shared: shared})
					if err != nil {
						t.Fatalf("%s, shared %v: open: %v", what, shared, err)
					}
					if got := contents(t, s); !maps.Equal(got, states[k]) {
						t.Fatalf("%s, shared %v: the store holds %q, want the %d batches before the damage: %q", what, shared, got, k, states[k])
					}
					if shared {
						if err := s.Seal(); err != nil {
							t.Fatalf("%s: Seal: %v", what, err)
						}
						if got := contents(t, s); !maps.Equal(got, states[k]) {
							t.Fatalf("%s, sealed: the store holds %q, want %q", what, got, states[k])
						}
					}
					info, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					if info.Size() != wantSize {
						t.Fatalf("%s, shared %v: the file is %d bytes after the open, want %d", what, shared, info.Size(), wantSize)
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for cut := 0; cut <= len(data); cut++ {
				if 0 < cut && cut < len(fileMagic) {
					path := filepath.Join(dir, "short.db")
					if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
						t.Fatal(err)
					}
					if s, err := OpenFileStoreWith(path, FileOpts{}); err == nil {
						s.Close()
						t.Fatalf("cut at %d: a file shorter than the magic opened", cut)
					}
					continue
				}
				check(fmt.Sprintf("cut at %d", cut), data[:cut], prefix(cut))
			}
			for at := len(fileMagic); at < len(data); at++ {
				flipped := bytes.Clone(data)
				flipped[at] ^= 0xff
				check(fmt.Sprintf("byte %d flipped", at), flipped, prefix(at))
			}
		})
	}
}
