package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// FileStore is the durable backend: one append-only log file plus an
// in-memory index, in the spirit of a bolt-style single-file store but
// built log-structured so every write is a single sequential append.
//
// On-disk layout:
//
//	magic    8 bytes  "FEM2STO1"
//	frame*   each frame is one atomic batch:
//	           4 bytes  big-endian payload length
//	           payload  sequence of ops (see below)
//	           4 bytes  big-endian CRC-32 (IEEE) of the payload
//
// Each op inside a payload:
//
//	1 byte   kind: 1 = put, 2 = delete
//	4 bytes  big-endian key length, then the key
//	4 bytes  big-endian value length, then the value   (puts only)
//
// A batch is written with a single write(2) call, so after a process
// crash (kill -9) the file ends either after a complete frame or in a
// torn one.  Open replays frames until the first length/CRC mismatch,
// truncates the tail there, and rebuilds the index — every batch is
// all-or-nothing, which is exactly the Batch contract.
//
// Deletes and overwrites leave dead bytes behind; when they outgrow
// the live data, Open compacts: it rewrites the live records (sorted,
// one frame per key, so the result is deterministic) to a temp file
// and renames it over the log.
//
// The index maps each live key to the offset of its value inside the
// file, so Get is one pread and memory stays proportional to keys,
// not values.
//
// Ownership comes in two modes.  In the default exclusive mode one
// process owns the file: open truncates torn tails and may compact.
// In shared mode (FileOpts.Shared, used by the cluster layer) several
// processes hold the same file: nothing truncates or compacts at open,
// every append takes an exclusive flock and re-tails the log first so
// concurrent writers from different processes cannot interleave, and
// Refresh lets a follower fold in frames the leader committed.  Only
// Seal — called once on takeover, when the old writer is known dead —
// truncates a torn tail.
type FileStore struct {
	mu     sync.RWMutex
	f      *os.File
	path   string
	size   int64 // end of last complete indexed frame = next append offset
	index  map[string]valueLoc
	live   int64 // bytes of live payload (keys + values still reachable)
	sync   bool  // fsync after every Batch (-store-sync)
	shared bool  // multi-process mode: flock writes, never truncate/compact
	closed bool
	frame  []byte // batch's frame buffer, reused under mu
}

type valueLoc struct {
	off int64 // offset of the value bytes within the file
	len int32
}

const (
	fileMagic = "FEM2STO1"

	opPut    = 1
	opDelete = 2

	// compactMinGarbage is the least dead-byte count worth rewriting
	// the file for; below it Open leaves even 100%-garbage logs alone.
	compactMinGarbage = 1 << 16

	// maxRetainedFrame is the largest frame buffer a store keeps for its
	// next batch; a larger batch is framed in a buffer of its own.
	maxRetainedFrame = 1 << 20

	// windowSize is how much of the log one read takes in: the scan of
	// the frames at open reads windows this large, Seek reads a run of
	// values spanning up to this much with one pread, and compaction
	// writes its frames this much at a time.
	windowSize = 1 << 20

	// seekGap is the most bytes of other frames Seek reads over to keep
	// two values in one run: about what one more pread costs to copy.
	seekGap = 4 << 10
)

// window is windowSize; tests shrink it so that frames and runs of
// values straddle reads.
var window = windowSize

// FileOpts bundles the file-backend knobs beyond the path.
type FileOpts struct {
	// Sync ends every Batch in an fsync, so a committed write survives
	// not just a process crash but a machine crash.  The default is off
	// — the CRC framing already guarantees a crash loses at most the
	// unsynced tail, never corrupts the log — and fsync-per-batch trades
	// orders of magnitude of write throughput for that last nine.
	Sync bool
	// CompactAt overrides the dead-byte threshold that triggers
	// compaction at open: 0 keeps the default (64 KiB), a positive
	// value replaces it, a negative value suppresses compaction
	// entirely.  Tests use it to force or forbid compaction
	// deterministically.
	CompactAt int64
	// Shared opens the file for multi-process use: no truncation or
	// compaction at open, flock around every append.  Implies no
	// compaction regardless of CompactAt.
	Shared bool
}

// OpenFileStoreWith opens (or creates) the store file at path, replays
// the log to rebuild the index, truncates any torn tail left by a crash,
// and compacts the log when dead bytes outweigh live ones.
func OpenFileStoreWith(path string, o FileOpts) (*FileStore, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", dir, err)
		}
	}
	s, err := openFile(path, o.Shared)
	if err != nil {
		return nil, err
	}
	s.sync = o.Sync
	threshold := int64(compactMinGarbage)
	if o.CompactAt > 0 {
		threshold = o.CompactAt
	}
	garbage := s.size - int64(len(fileMagic)) - s.frameOverhead() - s.live
	if !o.Shared && o.CompactAt >= 0 && garbage >= threshold && garbage > s.live {
		if err := s.compact(); err != nil {
			s.f.Close()
			return nil, err
		}
	}
	return s, nil
}

func openFile(path string, shared bool) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	s := &FileStore{f: f, path: path, shared: shared, index: map[string]valueLoc{}}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// frameOverhead estimates the framing + op-header bytes attributable
// to the live index, so the garbage computation compares payload to
// payload rather than charging headers as garbage.
func (s *FileStore) frameOverhead() int64 {
	// Per live key: op kind (1) + key len (4) + value len (4) plus a
	// share of frame header/CRC (8).  An estimate is fine — it only
	// biases when compaction triggers, not correctness.
	return int64(len(s.index)) * 17
}

// replay opens the log: it checks the magic (writing it into an empty
// file), scans every frame into the index, and in exclusive mode truncates
// the file at the first incomplete or corrupt frame (the torn tail of a
// crash).
func (s *FileStore) replay() error {
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
	s.size = int64(len(fileMagic))
	end, err := s.scanLocked()
	if err != nil {
		return err
	}
	if s.size != end && !s.shared {
		// Exclusive mode: the torn tail is ours, drop it.  Shared mode
		// leaves it — another live process may be mid-append, and only
		// Seal (with the old writer known dead) may truncate.
		if err := s.f.Truncate(s.size); err != nil {
			return fmt.Errorf("store: truncating torn tail of %s: %w", s.path, err)
		}
	}
	if _, err := s.f.Seek(s.size, io.SeekStart); err != nil {
		return fmt.Errorf("store: seeking %s: %w", s.path, err)
	}
	return nil
}

// scanLocked is the one reader of the log's frames: from s.size on it
// folds every complete frame — length header, payload within the file,
// CRC — into the index and advances s.size past it, stopping at the first
// incomplete or corrupt one (a torn tail, or a frame another process is
// still appending).  The frames are parsed out of a logWindow, so a scan
// costs one pread per window, not three per frame.  It never truncates; it
// returns the file's size so a caller that may can tell whether a tail is
// left.
func (s *FileStore) scanLocked() (fileSize int64, err error) {
	info, err := s.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: stat %s: %w", s.path, err)
	}
	size := info.Size()
	w := logWindow{f: s.f}
	off := s.size
	for off+8 <= size {
		hdr, err := w.at(off, 4, size)
		if err != nil {
			break
		}
		plen := int64(binary.BigEndian.Uint32(hdr))
		frameEnd := off + 4 + plen + 4
		if frameEnd > size {
			break // torn payload
		}
		body, err := w.at(off+4, int(plen)+4, size)
		if err != nil {
			break
		}
		payload := body[:plen]
		if binary.BigEndian.Uint32(body[plen:]) != crc32.ChecksumIEEE(payload) {
			break // torn or corrupt frame
		}
		if err := s.applyPayload(payload, off+4); err != nil {
			return 0, err
		}
		off = frameEnd
	}
	s.size = off
	return size, nil
}

// logWindow is the log as its readers — the frame scan and Seek — see it:
// the bytes from file offset off on, refilled by one pread whenever a
// read runs past them.  A refill starts at the read and takes in up to
// window bytes (more only for a read that is itself longer) but never
// past the end the caller names, so a reader takes in nothing beyond what
// it will parse.  The buffer lives as long as the reader, which makes it
// garbage when the scan or the Seek ends.
type logWindow struct {
	f   *os.File
	buf []byte
	off int64
}

// at returns the n bytes of the log at off, off+n <= end.  They are good
// until the next call.
func (w *logWindow) at(off int64, n int, end int64) ([]byte, error) {
	if off >= w.off && off+int64(n) <= w.off+int64(len(w.buf)) {
		i := off - w.off
		return w.buf[i : i+int64(n)], nil
	}
	size := max(n, int(min(int64(window), end-off)))
	if cap(w.buf) < size {
		w.buf = make([]byte, size)
	}
	m, err := w.f.ReadAt(w.buf[:size], off)
	w.buf, w.off = w.buf[:m], off
	if m < n {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return w.buf[:n], nil
}

// Refresh folds in frames committed by another process sharing the
// file (shared mode only; exclusive stores are trivially fresh).
func (s *FileStore) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.shared {
		return nil
	}
	_, err := s.scanLocked()
	return err
}

// Seal is the takeover step: with the previous writer known dead, tail
// every complete frame it committed and truncate whatever torn tail
// its death left, so this process's appends start on a clean frame
// boundary.  No-op on exclusive stores (replay already sealed them).
func (s *FileStore) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.shared {
		return nil
	}
	if err := flockFile(s.f); err != nil {
		return fmt.Errorf("store: locking %s: %w", s.path, err)
	}
	defer funlockFile(s.f)
	end, err := s.scanLocked()
	if err != nil {
		return err
	}
	if end > s.size {
		if err := s.f.Truncate(s.size); err != nil {
			return fmt.Errorf("store: sealing torn tail of %s: %w", s.path, err)
		}
	}
	return nil
}

// applyPayload replays one frame's ops into the index.  base is the
// file offset of the payload's first byte.
func (s *FileStore) applyPayload(payload []byte, base int64) error {
	i := 0
	for i < len(payload) {
		if len(payload)-i < 5 {
			return fmt.Errorf("store: %s: malformed frame op", s.path)
		}
		kind := payload[i]
		klen := int(binary.BigEndian.Uint32(payload[i+1 : i+5]))
		i += 5
		if len(payload)-i < klen {
			return fmt.Errorf("store: %s: malformed frame key", s.path)
		}
		key := string(payload[i : i+klen])
		i += klen
		switch kind {
		case opDelete:
			if old, ok := s.index[key]; ok {
				s.live -= int64(len(key)) + int64(old.len)
				delete(s.index, key)
			}
		case opPut:
			if len(payload)-i < 4 {
				return fmt.Errorf("store: %s: malformed frame value length", s.path)
			}
			vlen := int(binary.BigEndian.Uint32(payload[i : i+4]))
			i += 4
			if len(payload)-i < vlen {
				return fmt.Errorf("store: %s: malformed frame value", s.path)
			}
			if old, ok := s.index[key]; ok {
				s.live -= int64(len(key)) + int64(old.len)
			}
			s.index[key] = valueLoc{off: base + int64(i), len: int32(vlen)}
			s.live += int64(len(key)) + int64(vlen)
			i += vlen
		default:
			return fmt.Errorf("store: %s: unknown op kind %d", s.path, kind)
		}
	}
	return nil
}

// appendFrame appends ops to dst as one framed batch ready to append to
// the log.
func appendFrame(dst []byte, ops []Op) []byte {
	plen := 0
	for _, op := range ops {
		plen += 5 + len(op.Key)
		if !op.Delete {
			plen += 4 + len(op.Value)
		}
	}
	start := len(dst)
	buf := slices.Grow(dst, 4+plen+4)
	buf = binary.BigEndian.AppendUint32(buf, uint32(plen))
	for _, op := range ops {
		kind := byte(opPut)
		if op.Delete {
			kind = opDelete
		}
		buf = binary.BigEndian.AppendUint32(append(buf, kind), uint32(len(op.Key)))
		buf = append(buf, op.Key...)
		if !op.Delete {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(op.Value)))
			buf = append(buf, op.Value...)
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start+4:]))
}

// Batch appends ops as one frame — a single write, so the batch is
// all-or-nothing across a crash — then updates the index.
func (s *FileStore) Batch(ops []Op) error {
	return s.batch("", nil, false, ops)
}

// BatchIf is Batch guarded by a compare on one key: the ops land iff
// the current value under key equals want (nil want = key absent).  In
// shared mode the compare happens after re-tailing the log under the
// file lock, so the check-then-append is atomic across processes, not
// just goroutines.
func (s *FileStore) BatchIf(key string, want []byte, ops []Op) error {
	return s.batch(key, want, true, ops)
}

func (s *FileStore) batch(key string, want []byte, cond bool, ops []Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.shared {
		// Cross-process critical section: lock the file, fold in frames
		// other writers committed, and only then compare and append at
		// the true end of the log.
		if err := flockFile(s.f); err != nil {
			return fmt.Errorf("store: locking %s: %w", s.path, err)
		}
		defer funlockFile(s.f)
		if _, err := s.scanLocked(); err != nil {
			return err
		}
	}
	if cond {
		ok, err := s.matchLocked(key, want)
		if err != nil {
			return err
		}
		if !ok {
			return ErrConflict
		}
	}
	if s.shared {
		// Anything past the last complete frame is a dead writer's torn
		// tail (a live one would hold the flock); overwrite it cleanly.
		if info, err := s.f.Stat(); err == nil && info.Size() > s.size {
			if err := s.f.Truncate(s.size); err != nil {
				return fmt.Errorf("store: truncating torn tail of %s: %w", s.path, err)
			}
		}
	}
	// The frame is built in the store's own buffer: the index copies the
	// keys out of it and keeps only offsets, so nothing points into it
	// once the batch returns.
	frame := appendFrame(s.frame[:0], ops)
	if cap(frame) <= maxRetainedFrame {
		s.frame = frame
	}
	n, err := s.f.WriteAt(frame, s.size)
	if err != nil {
		// A short append leaves a torn frame; the next open truncates
		// it.  Do not advance size past what landed.
		s.size += int64(n)
		return fmt.Errorf("store: appending to %s: %w", s.path, err)
	}
	base := s.size + 4
	s.size += int64(len(frame))
	if err := s.applyPayload(frame[4:len(frame)-4], base); err != nil {
		return err
	}
	if s.sync {
		// The frame is complete and indexed either way; a failed fsync
		// means the durability promise — not the write — broke, and the
		// caller gets to treat that as a store failure.
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: fsync %s: %w", s.path, err)
		}
	}
	return nil
}

// matchLocked reports whether the current value under key equals want
// byte-for-byte (nil want matches an absent key).
func (s *FileStore) matchLocked(key string, want []byte) (bool, error) {
	loc, ok := s.index[key]
	if !ok {
		return want == nil, nil
	}
	if want == nil || int32(len(want)) != loc.len {
		return false, nil
	}
	cur := make([]byte, loc.len)
	if _, err := s.f.ReadAt(cur, loc.off); err != nil {
		return false, fmt.Errorf("store: reading %s: %w", s.path, err)
	}
	return bytes.Equal(cur, want), nil
}

// Put stores value under key.
func (s *FileStore) Put(key string, value []byte) error {
	return s.Batch([]Op{Put(key, value)})
}

// Delete removes key; deleting a missing key writes nothing.
func (s *FileStore) Delete(key string) error {
	s.mu.RLock()
	_, ok := s.index[key]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return nil
	}
	return s.Batch([]Op{Del(key)})
}

// Get reads the value under key with one pread.
func (s *FileStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	loc, ok := s.index[key]
	if !ok {
		return nil, fmt.Errorf("store: key %q: %w", key, ErrNotFound)
	}
	out := make([]byte, loc.len)
	if _, err := s.f.ReadAt(out, loc.off); err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", s.path, err)
	}
	return out, nil
}

// Has reports whether key holds a value, from the index: no read.
func (s *FileStore) Has(key string) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false, ErrClosed
	}
	_, ok := s.index[key]
	return ok, nil
}

// Seek visits keys with the given prefix in ascending byte order.  A run
// of values that are consecutive in key order and near each other in the
// file — each within seekGap bytes of the span of the run's values before
// it, in either direction, the run spanning at most window bytes — is
// read with one pread; a value further from its neighbours is read alone,
// so a Seek over a few keys scattered through the log reads only their
// values.  A value is fn's only for the call: the next run is read into
// the same buffer.
func (s *FileStore) Seek(prefix string, fn func(key string, value []byte) bool) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	locs := make([]valueLoc, len(keys))
	for i, k := range keys {
		locs[i] = s.index[k]
	}
	w := logWindow{f: s.f}
	s.mu.RUnlock()
	for i := 0; i < len(keys); {
		// The run is the span [lo, hi) of the values from i on that each
		// lie within seekGap of the span of those before them.
		lo, hi := locs[i].off, locs[i].off+int64(locs[i].len)
		j := i + 1
		for ; j < len(keys); j++ {
			off, end := locs[j].off, locs[j].off+int64(locs[j].len)
			if off > hi+seekGap || end < lo-seekGap || max(hi, end)-min(lo, off) > int64(window) {
				break
			}
			lo, hi = min(lo, off), max(hi, end)
		}
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return ErrClosed
		}
		run, err := w.at(lo, int(hi-lo), hi)
		s.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", s.path, err)
		}
		for ; i < j; i++ {
			at := locs[i].off - lo
			if !fn(keys[i], run[at:at+int64(locs[i].len):at+int64(locs[i].len)]) {
				return nil
			}
		}
	}
	return nil
}

// compact rewrites the live records — sorted, one frame per key, so
// the output is deterministic for a given logical state — to a temp
// file and renames it over the log.  The values are read by Seek, in
// runs, and the frames written a window at a time.  Called from Open
// with the store still private to the opener.
func (s *FileStore) compact() error {
	tmp, err := os.CreateTemp(filepath.Dir(s.path), filepath.Base(s.path)+".compact-*")
	if err != nil {
		return fmt.Errorf("store: compacting %s: %w", s.path, err)
	}
	defer os.Remove(tmp.Name())
	newIndex := make(map[string]valueLoc, len(s.index))
	buf := append(make([]byte, 0, min(int64(window), s.size)), fileMagic...)
	var off int64 // of buf[0] in the new file
	var werr error
	flush := func() {
		if werr == nil {
			_, werr = tmp.Write(buf)
		}
		off += int64(len(buf))
		buf = buf[:0]
	}
	err = s.Seek("", func(k string, v []byte) bool {
		// The value sits after frame len (4) + op kind (1) + key len (4) +
		// key + value len (4).
		newIndex[k] = valueLoc{off: off + int64(len(buf)) + 4 + 5 + int64(len(k)) + 4, len: int32(len(v))}
		if buf = appendFrame(buf, []Op{Put(k, v)}); len(buf) >= window {
			flush()
		}
		return werr == nil
	})
	flush()
	if err == nil {
		err = werr
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path)
	}
	if err != nil {
		return fmt.Errorf("store: compacting %s: %w", s.path, err)
	}
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening compacted %s: %w", s.path, err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: seeking %s: %w", s.path, err)
	}
	s.f.Close()
	s.f = f
	s.index = newIndex
	s.size = off
	return nil
}

// Close flushes nothing (every write already hit the file) and closes
// the file handle.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	err := s.f.Close()
	s.index = nil
	if err != nil {
		return fmt.Errorf("store: closing %s: %w", s.path, err)
	}
	return nil
}
