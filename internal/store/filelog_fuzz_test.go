package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// oracleReplay is FileStore.replay as it stood while the frame loop was
// written twice (here and in refreshLocked), verbatim but for the receiver
// becoming a parameter: the oracle scanLocked is fuzzed against.
func oracleReplay(s *FileStore) error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat %s: %w", s.path, err)
	}
	if info.Size() == 0 {
		if _, err := s.f.Write([]byte(fileMagic)); err != nil {
			return fmt.Errorf("store: writing magic: %w", err)
		}
		s.size = int64(len(fileMagic))
		return nil
	}
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(s.f, magic); err != nil || string(magic) != fileMagic {
		return fmt.Errorf("store: %s is not a FEM-2 store file", s.path)
	}
	off := int64(len(fileMagic))
	var hdr [4]byte
	for {
		if _, err := s.f.ReadAt(hdr[:], off); err != nil {
			break // clean EOF or torn length header: truncate here
		}
		plen := int64(binary.BigEndian.Uint32(hdr[:]))
		frameEnd := off + 4 + plen + 4
		if frameEnd > info.Size() {
			break // torn payload
		}
		payload := make([]byte, plen)
		if _, err := s.f.ReadAt(payload, off+4); err != nil {
			break
		}
		if _, err := s.f.ReadAt(hdr[:], off+4+plen); err != nil {
			break
		}
		if binary.BigEndian.Uint32(hdr[:]) != crc32.ChecksumIEEE(payload) {
			break // torn or corrupt frame
		}
		if err := s.applyPayload(payload, off+4); err != nil {
			return err
		}
		off = frameEnd
	}
	if off != info.Size() && !s.shared {
		// Exclusive mode: the torn tail is ours, drop it.  Shared mode
		// leaves it — another live process may be mid-append, and only
		// Seal (with the old writer known dead) may truncate.
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncating torn tail of %s: %w", s.path, err)
		}
	}
	s.size = off
	if _, err := s.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("store: seeking %s: %w", s.path, err)
	}
	return nil
}

// frameOf wraps a payload — well-formed or not — in a valid length header
// and CRC.
func frameOf(payload []byte) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// repairCRCs walks tail as frames and rewrites each checksum to match its
// payload, so that a mutated payload reaches applyPayload instead of
// ending the scan: the fuzzer cannot guess a CRC-32.
func repairCRCs(tail []byte) {
	for off := 0; off+8 <= len(tail); {
		end := off + 4 + int(binary.BigEndian.Uint32(tail[off:]))
		if end < off || end+4 > len(tail) {
			return
		}
		binary.BigEndian.PutUint32(tail[end:], crc32.ChecksumIEEE(tail[off+4:end]))
		off = end + 4
	}
}

// FuzzFileStoreLog feeds the file store arbitrary bytes after the magic
// (as they are, or with the frames' checksums repaired — see repairCRCs),
// opened exclusive and shared.  Whatever they are: no panic; what the open
// allocates is bounded by the file's size; the index, the append offset
// and the live-byte count are what oracleReplay builds from the same bytes
// (and an open fails exactly when the oracle does); every indexed value
// reads back as the file's own bytes; a torn tail is cut off by the
// exclusive open, left alone by the shared one and by Refresh, and cut off
// by Seal.  All of it at the production read window and at a window of a
// few bytes.
func FuzzFileStoreLog(f *testing.F) {
	log := bytes.Join([][]byte{
		appendFrame(nil, []Op{Put("m:plate", bytes.Repeat([]byte{0, 'M', 2}, 40))}),
		appendFrame(nil, []Op{Put("j:0000000000000001", []byte(`{"id":1,"state":"queued"}`))}),
		appendFrame(nil, []Op{Put("j:0000000000000001", []byte(`{"id":1,"state":"done"}`)), Put("s:plate:00000001", []byte(`{"seq":1}`))}),
		appendFrame(nil, []Op{Del("m:plate"), Del("s:plate:00000001"), Put("", nil)}),
	}, nil)
	f.Add([]byte{}, false)
	f.Add(log, false)
	f.Add(log, true)
	for _, cut := range []int{1, 4, 9, 30, len(log) / 2} {
		f.Add(log[:len(log)-cut], false) // torn tails
	}
	flipped := bytes.Clone(log)
	flipped[len(flipped)/3] ^= 0x40 // a corrupt frame with good ones behind it
	f.Add(flipped, false)
	f.Add(flipped, true)                                                               // the same bytes as a frame that checks
	f.Add(append(bytes.Clone(log), frameOf([]byte{opPut, 0, 0, 0, 9, 'k'})...), false) // CRC-valid, op runs off the payload
	f.Add(append(bytes.Clone(log), frameOf([]byte{7, 0, 0, 0, 0})...), false)          // CRC-valid, unknown op kind
	f.Add(append(bytes.Clone(log), 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5), false)      // a length no file holds
	f.Add(append(bytes.Clone(log), frameOf(nil)...), false)                            // an empty batch ends the file

	f.Fuzz(func(t *testing.T, tail []byte, repair bool) {
		data := append([]byte(fileMagic), tail...)
		if repair {
			repairCRCs(data[len(fileMagic):])
		}
		dir := t.TempDir()
		write := func(name string) string {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
		diskSize := func(path string) int64 {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			return info.Size()
		}

		of, err := os.OpenFile(write("oracle.db"), os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer of.Close()
		want := &FileStore{f: of, path: of.Name(), index: map[string]valueLoc{}}
		wantErr := oracleReplay(want)

		same := func(mode string, got *FileStore) {
			t.Helper()
			if got.size != want.size || got.live != want.live || !reflect.DeepEqual(got.index, want.index) {
				t.Fatalf("%s: size %d live %d index %v\noracle: size %d live %d index %v",
					mode, got.size, got.live, got.index, want.size, want.live, want.index)
			}
			for k, loc := range got.index {
				v, err := got.Get(k)
				if err != nil || !bytes.Equal(v, data[loc.off:loc.off+int64(loc.len)]) {
					t.Fatalf("%s: Get(%q) = %x, %v; the file holds %x there", mode, k, v, err, data[loc.off:loc.off+int64(loc.len)])
				}
			}
		}

		// The scan and Seek read the log in windows; at a few bytes every
		// frame and every run of values straddles reads.
		for _, w := range []int{windowSize, 7} {
			setWindow(t, w)
			t.Logf("read window: %d bytes", w) // shown with a failure
			func() {
				excl := write("exclusive.db")
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				x, err := OpenFileStoreWith(excl, FileOpts{CompactAt: -1})
				runtime.ReadMemStats(&after)
				// A key costs at least five bytes of log and a map entry; the slack
				// covers the empty log and the runtime's own goroutines.
				if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+(1<<16)); got > limit {
					t.Fatalf("opening %d bytes allocated %d, limit %d", len(data), got, limit)
				}
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("exclusive open: %v, oracle: %v", err, wantErr)
				}
				shared := write("shared.db")
				sh, sherr := OpenFileStoreWith(shared, FileOpts{Shared: true})
				if (sherr != nil) != (wantErr != nil) {
					t.Fatalf("shared open: %v, oracle: %v", sherr, wantErr)
				}
				if wantErr != nil {
					return
				}
				defer x.Close()
				defer sh.Close()

				same("exclusive", x)
				if got := diskSize(excl); got != x.size {
					t.Fatalf("exclusive open left %d bytes on disk, the log ends at %d", got, x.size)
				}
				same("shared", sh)
				if err := sh.Refresh(); err != nil {
					t.Fatalf("Refresh: %v", err)
				}
				same("shared, refreshed", sh)
				if got := diskSize(shared); got != int64(len(data)) {
					t.Fatalf("shared open and Refresh changed the file: %d bytes, was %d", got, len(data))
				}
				if err := sh.Seal(); err != nil {
					t.Fatalf("Seal: %v", err)
				}
				same("shared, sealed", sh)
				if got := diskSize(shared); got != sh.size {
					t.Fatalf("Seal left %d bytes on disk, the log ends at %d", got, sh.size)
				}
			}()
		}
	})
}
