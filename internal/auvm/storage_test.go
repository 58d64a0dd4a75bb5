package auvm

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/fault"
	"repro/internal/fem"
	"repro/internal/store"
)

// openFileDB opens (or reopens) a file-backed database at path.
func openFileDB(t *testing.T, path string) (*Database, store.Store) {
	t.Helper()
	st, err := store.OpenFileStoreWith(path, store.FileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return NewDatabaseOn(st, store.BackendFile), st
}

// TestDatabaseSurvivesReopen pins the durability story at the database
// layer: models stored through a file-backed database are all there when
// a fresh database opens the same file.
func TestDatabaseSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fem2.db")
	db, st := openFileDB(t, path)
	alice := NewSession("alice", db)
	mustExec(t, alice, "generate grid plate 4 3 4 3 clamp-left")
	mustExec(t, alice, "load plate tip endload 0 -100")
	mustExec(t, alice, "solve plate tip")
	mustExec(t, alice, "store plate")
	wantList := mustExec(t, alice, "list db")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	db2, st2 := openFileDB(t, path)
	defer st2.Close()
	if got := mustExec(t, NewSession("bob", db2), "list db"); got != wantList {
		t.Errorf("list db after reopen = %q, want %q", got, wantList)
	}
	bob := NewSession("bob", db2)
	mustExec(t, bob, "retrieve plate")
	out := mustExec(t, bob, "solve plate tip")
	if !strings.Contains(out, "plate") {
		t.Errorf("solve on recovered model: %q", out)
	}
}

// TestDatabaseDeleteClearsSolutions pins what a delete leaves of a model
// an older daemon solved: the upgrade at open has already deleted the
// solve-history records, so Delete removes the model with a single store
// delete, nothing of its history is left, and another model stays.
func TestDatabaseDeleteClearsSolutions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fem2.db")
	db, st := openFileDB(t, path)
	s := NewSession("alice", db)
	mustExec(t, s, "generate bar rod 4 10")
	mustExec(t, s, "store rod")
	mustExec(t, s, "generate bar rod2 2 10")
	mustExec(t, s, "store rod2")
	old := map[string]string{store.KeyFormat: "2", "s:rod:00000001": "{}", "s:rod:00000002": "{}", "s:rod2:00000001": "{}"}
	for k, v := range old {
		if err := st.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	file, err := store.OpenFileStoreWith(path, store.FileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if err := UpgradeStore(file); err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(1)
	db = NewDatabaseOn(fault.NewStore(file, in), store.BackendFile)
	if found, err := db.Delete("rod"); !found || err != nil {
		t.Fatalf("Delete(rod) = %v, %v; want true, nil", found, err)
	}
	if n := in.Calls(fault.OpDelete); n != 1 {
		t.Errorf("Delete made %d store deletes, want 1", n)
	}
	if _, _, err := db.Retrieve("rod"); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("Retrieve after delete = %v, want not-found", err)
	}
	if _, _, err := db.Retrieve("rod2"); err != nil {
		t.Errorf("Retrieve(rod2) after deleting rod: %v", err)
	}
	var left []string
	if err := file.Seek("s:", func(k string, _ []byte) bool { left = append(left, k); return true }); err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("s: keys after open and delete = %q, want none", left)
	}
}

// TestDatabaseDeleteReadsNoValue: Delete learns that a model is stored
// from the store's index alone.  On a file store a delete of the 40×24
// plate, a record of about 32 KB, reads none of it (rchar in
// /proc/self/io, skipped where that file is missing), and no Get is made
// of any store; a delete of a model never stored reports false.
func TestDatabaseDeleteReadsNoValue(t *testing.T) {
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
	db, st := openFileDB(t, filepath.Join(t.TempDir(), "fem2.db"))
	defer st.Close()
	s := NewSession("alice", db)
	mustExec(t, s, "generate grid plate 40 24 40 24 clamp-left")
	mustExec(t, s, "load plate tip endload 0 -100")
	mustExec(t, s, "store plate")
	raw, err := st.Get(store.ModelKey("plate"))
	if err != nil || len(raw) < 16<<10 {
		t.Fatalf("the plate's record: %d bytes, %v", len(raw), err)
	}
	in := fault.NewInjector(1)
	db = NewDatabaseOn(fault.NewStore(st.(*store.FileStore), in), store.BackendFile)
	before := readBytes()
	found, err := db.Delete("plate")
	read := readBytes() - before
	if !found || err != nil {
		t.Fatalf("Delete(plate) = %v, %v; want true, nil", found, err)
	}
	// The second reading of /proc/self/io counts itself: a few hundred
	// bytes.
	if read > 4<<10 {
		t.Errorf("deleting a %d-byte record read %d bytes", len(raw), read)
	}
	if n := in.Calls(fault.OpGet); n != 0 {
		t.Errorf("Delete made %d store reads, want 0", n)
	}
	if found, err := db.Delete("plate"); found || err != nil {
		t.Errorf("second Delete(plate) = %v, %v; want false, nil", found, err)
	}
}

// TestUpgradeStore opens a store of every format: a fresh one is stamped
// 3, a format-1 or format-2 one has its gob models rewritten as records
// and its solve history deleted in the stamping batch, a current one gets
// no write, and a future one is refused untouched.  A value neither
// reader accepts stays.
func TestUpgradeStore(t *testing.T) {
	fixture := string(readFixture(t))
	m, loads := format1Model()
	raw, err := encodeModelRecord(m, []*fem.LoadSet{loads[1], loads[0]}) // in name order, as store writes them
	if err != nil {
		t.Fatal(err)
	}
	record := string(raw)
	dto := corruptOrderDTO()
	badOrder, err := gobModel(&dto)
	if err != nil {
		t.Fatal(err)
	}
	const junk = "\x07not a model"
	for _, c := range []struct {
		name    string
		version string // "" is a fresh store
		before  map[string]string
		after   map[string]string // nil: as before
		writes  int               // conditional batches; no other write is allowed
		refusal string
	}{
		{name: "fresh", after: map[string]string{store.KeyFormat: "3"}, writes: 1},
		{name: "format-1", version: "1", writes: 1,
			before: map[string]string{"m:mixed": fixture, "s:mixed:00000001": "{}", "s:mixed2:00000002": "{}"},
			after:  map[string]string{store.KeyFormat: "3", "m:mixed": record}},
		{name: "format-2", version: "2", writes: 1,
			before: map[string]string{"m:mixed": fixture, "m:kept": record, "s:kept:00000001": "{}"},
			after:  map[string]string{store.KeyFormat: "3", "m:mixed": record, "m:kept": record}},
		{name: "format-3", version: "3", before: map[string]string{"m:kept": record}},
		{name: "future", version: "4", before: map[string]string{"m:mixed": fixture, "s:mixed:00000001": "{}"},
			refusal: `store: format version "4" not supported (want "3")`},
		{name: "undecodable", version: "2", writes: 1,
			before: map[string]string{"m:order": string(badOrder), "m:junk": junk},
			after:  map[string]string{store.KeyFormat: "3", "m:order": string(badOrder), "m:junk": junk}},
	} {
		t.Run(c.name, func(t *testing.T) {
			kv := map[string][]byte{}
			for k, v := range c.before {
				kv[k] = []byte(v)
			}
			in := fault.NewInjector(1)
			st := fault.NewStore(oldStore(t, c.version, kv), in)
			want := dump(t, st)
			if c.after != nil {
				want = c.after
			}
			err := UpgradeStore(st)
			if c.refusal != "" && (err == nil || err.Error() != c.refusal) || c.refusal == "" && err != nil {
				t.Fatalf("UpgradeStore = %v, want %q", err, c.refusal)
			}
			if got := dump(t, st); !reflect.DeepEqual(got, want) {
				t.Errorf("store after the upgrade:\n%q\nwant\n%q", got, want)
			}
			if got := in.Calls(fault.OpBatchIf); got != c.writes {
				t.Errorf("%d conditional batches, want %d", got, c.writes)
			}
			for _, op := range []string{fault.OpPut, fault.OpDelete, fault.OpBatch} {
				if n := in.Calls(op); n != 0 {
					t.Errorf("%d calls of %s, want none", n, op)
				}
			}
		})
	}
}

// dump returns every key and value in st.
func dump(t *testing.T, st store.Store) map[string]string {
	t.Helper()
	kv := map[string]string{}
	if err := st.Seek("", func(k string, v []byte) bool { kv[k] = string(v); return true }); err != nil {
		t.Fatal(err)
	}
	return kv
}

// faultDB is a database over a mem store behind a disarmed fault
// injector with one rule.
func faultDB(rule fault.Rule) (*Database, *fault.Injector) {
	in := fault.NewInjector(1, rule)
	in.Disarm()
	return NewDatabaseOn(fault.NewStore(store.NewMemStore(), in), store.BackendMem), in
}

// TestDeleteReportsStoreFailure: a delete the store cannot write is that
// failure, not "not found", and the model stays.
func TestDeleteReportsStoreFailure(t *testing.T) {
	db, in := faultDB(fault.Rule{Op: fault.OpDelete, Fault: fault.Fault{Err: fault.ErrIO}})
	s := NewSession("alice", db)
	mustExec(t, s, "generate grid g 2 2 2 2")
	mustExec(t, s, "store g")
	in.Arm()
	_, err := s.Execute("delete g")
	if !errors.Is(err, fault.ErrIO) || errors.Is(err, errs.ErrNotFound) {
		t.Errorf("delete with a failing store = %v, want the injected I/O error", err)
	}
	in.Disarm()
	if names, _, err := db.List(); err != nil || len(names) != 1 || names[0] != "g" {
		t.Errorf("database after a failed delete = %q, %v; want g", names, err)
	}
	if _, err := s.Execute("delete nothing"); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("delete of a missing model = %v, want not-found", err)
	}
}

// TestListDBReportsSeekFailure: a listing the store cannot scan is that
// failure, not an empty database.
func TestListDBReportsSeekFailure(t *testing.T) {
	db, in := faultDB(fault.Rule{Op: fault.OpSeek, Fault: fault.Fault{Err: fault.ErrIO}})
	s := NewSession("alice", db)
	mustExec(t, s, "generate grid g 2 2 2 2")
	mustExec(t, s, "store g")
	in.Arm()
	if out, err := s.Execute("list db"); !errors.Is(err, fault.ErrIO) {
		t.Errorf("list db with a failing store = %q, %v; want the injected I/O error", out, err)
	}
	in.Disarm()
	if got := mustExec(t, s, "list db"); !strings.Contains(got, "1 models") {
		t.Errorf("list db = %q", got)
	}
}

// snapshotScript drives one session through the canonical workload the
// snapshot tests compare across.
func snapshotScript(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, "material 200000 0.3 10 2000")
	mustExec(t, s, "generate grid plate 6 4 6 4 clamp-left")
	mustExec(t, s, "load plate tip endload 0 -250")
	mustExec(t, s, "solve plate tip")
	mustExec(t, s, "stresses plate")
	mustExec(t, s, "generate truss tower 3 100 80")
}

// renderState collects every display rendering the snapshot must
// preserve.
func renderState(t *testing.T, s *Session) string {
	t.Helper()
	return strings.Join([]string{
		mustExec(t, s, "display model plate"),
		mustExec(t, s, "display displacements plate"),
		mustExec(t, s, "display stresses plate"),
		mustExec(t, s, "display model tower"),
		mustExec(t, s, "list workspace"),
	}, "\n")
}

// TestSnapshotRestoreRoundTrip pins the snapshot verbs: restoring into
// a fresh session renders the workspace — models, solutions, stresses,
// material — byte-identically to the session that wrote it.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ws.snap")
	a := newSession(t)
	snapshotScript(t, a)
	want := renderState(t, a)
	out := mustExec(t, a, "snapshot "+path)
	if !strings.Contains(out, "2 models") {
		t.Errorf("snapshot rendering = %q", out)
	}

	b := newSession(t)
	out = mustExec(t, b, "restore "+path)
	if !strings.Contains(out, "restored 2 models") {
		t.Errorf("restore rendering = %q", out)
	}
	if got := renderState(t, b); got != want {
		t.Errorf("restored state diverged:\n got: %q\nwant: %q", got, want)
	}
	// The restored solution is live, not just displayable: stress
	// recovery and a fresh solve both run on it.
	if got, want := mustExec(t, b, "stresses plate"), mustExec(t, a, "stresses plate"); got != want {
		t.Errorf("stresses after restore = %q, want %q", got, want)
	}
}

// TestSnapshotDeterministic pins the snapshot encoding: the same
// workspace snapshots to the same bytes every time.  With six grid models
// FEM2SNAP1 differed in 16 of 19 back-to-back snapshots: gob wrote the map
// of grid options in the map's random order.
func TestSnapshotDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := newSession(t)
	snapshotScript(t, a)
	for _, g := range []string{"g1 2 2 2 2", "g2 3 1 3 1 clamp-left", "g3 1 3 1 3", "g4 2 1 2 1 jitter 0.1 4", "g5 1 1 1 1"} {
		mustExec(t, a, "generate grid "+g)
	}
	var first []byte
	for i := 0; i < 20; i++ {
		path := filepath.Join(dir, fmt.Sprintf("%d.snap", i))
		mustExec(t, a, "snapshot "+path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = raw
		} else if !bytes.Equal(raw, first) {
			t.Fatalf("snapshot %d differs from the first: %d vs %d bytes", i, len(raw), len(first))
		}
	}
}

// TestRestoreOfABadModelReplacesNothing: a snapshot whose second model
// cannot be decoded (a bar referencing a node the model does not have) is
// refused, and the model its first entry would have replaced keeps its
// grid and its solution.  Restore used to apply the models it decoded
// before the bad one.
func TestRestoreOfABadModelReplacesNothing(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "generate grid a 2 2 2 2 clamp-left")
	mustExec(t, s, "load a l endload 0 -100")
	mustExec(t, s, "solve a l")
	before := mustExec(t, s, "display model a") + mustExec(t, s, "display displacements a")

	small, err := fem.RectGrid("a", fem.RectGridOpts{NX: 1, NY: 1, W: 1, H: 1, Mat: fem.Steel(), ClampLeft: true})
	if err != nil {
		t.Fatal(err)
	}
	good, err := encodeModel(small, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := modelDTO{Name: "b", Nodes: []fem.NodeCoord{{}}, Bars: []barDTO{{N1: 0, N2: 5, Mat: fem.Steel()}}, Order: []byte{elemBar}}
	var snap bytes.Buffer
	snap.WriteString(legacySnapshotMagic)
	if err := gob.NewEncoder(&snap).Encode(&snapshotDTO{Models: []modelSnapshotDTO{{Model: *good}, {Model: bad}}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = s.Execute("restore " + path)
	if err == nil || !strings.Contains(err.Error(), `auvm: restore model "b": `) || !strings.Contains(err.Error(), "references node 5 of 1") {
		t.Fatalf("restore of a bad model: %v", err)
	}
	if after := mustExec(t, s, "display model a") + mustExec(t, s, "display displacements a"); after != before {
		t.Errorf("a refused restore replaced model a:\n got: %q\nwant: %q", after, before)
	}
	if _, err := s.Execute("display model b"); err == nil {
		t.Error("a refused restore added model b")
	}
}

// TestRestoreErrors pins the failure modes: a missing file and a file
// that is not a snapshot both fail usefully, touching nothing.
func TestRestoreErrors(t *testing.T) {
	s := newSession(t)
	if _, err := s.Execute("restore /no/such/file.snap"); err == nil {
		t.Error("restore of a missing file succeeded")
	}
	bogus := filepath.Join(t.TempDir(), "bogus.snap")
	if err := os.WriteFile(bogus, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("restore " + bogus); err == nil ||
		!strings.Contains(err.Error(), "not a FEM-2 snapshot") {
		t.Errorf("restore of a bogus file = %v", err)
	}
}
