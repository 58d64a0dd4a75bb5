package auvm

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/errs"
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

// TestDatabaseDeleteClearsSolutions pins Delete's batch semantics: the
// model and the solve-history records an older daemon left under its name
// vanish together, and another model's stay.
func TestDatabaseDeleteClearsSolutions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fem2.db")
	db, st := openFileDB(t, path)
	defer st.Close()
	s := NewSession("alice", db)
	mustExec(t, s, "generate bar rod 4 10")
	mustExec(t, s, "store rod")
	leftovers := []string{"s:rod:00000001", "s:rod:00000002", "s:rod2:00000001"}
	for _, k := range leftovers {
		if err := st.Put(k, []byte(`{"seq":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if !db.Delete("rod") {
		t.Fatal("Delete(rod) = false, want true")
	}
	if _, _, err := db.Retrieve("rod"); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("Retrieve after delete = %v, want not-found", err)
	}
	var left []string
	st.Seek("s:", func(k string, _ []byte) bool { left = append(left, k); return true })
	if len(left) != 1 || left[0] != "s:rod2:00000001" {
		t.Errorf("s: keys after delete = %q, want only rod2's", left)
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
// workspace snapshots to the same byte count every time (gob of fixed
// concrete types), so the acceptance comparison is stable.
func TestSnapshotDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := newSession(t)
	snapshotScript(t, a)
	mustExec(t, a, "snapshot "+filepath.Join(dir, "one.snap"))
	mustExec(t, a, "snapshot "+filepath.Join(dir, "two.snap"))
	one, err := os.ReadFile(filepath.Join(dir, "one.snap"))
	if err != nil {
		t.Fatal(err)
	}
	two, err := os.ReadFile(filepath.Join(dir, "two.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != len(two) {
		t.Errorf("snapshot sizes diverged: %d vs %d", len(one), len(two))
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
	snap.WriteString(snapshotMagic)
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
