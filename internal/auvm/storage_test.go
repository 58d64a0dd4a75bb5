package auvm

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec/codectest"
	"repro/internal/errs"
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
// layer: models and solution history stored through a file-backed
// database are all there when a fresh database opens the same file.
func TestDatabaseSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fem2.db")
	db, st := openFileDB(t, path)
	alice := NewSession("alice", db)
	mustExec(t, alice, "generate grid plate 4 3 4 3 clamp-left")
	mustExec(t, alice, "load plate tip endload 0 -100")
	mustExec(t, alice, "solve plate tip")
	mustExec(t, alice, "store plate")
	wantList := mustExec(t, alice, "list db")
	if err := db.AppendSolution(SolutionRecord{Model: "plate", Set: "tip", Backend: "cholesky"}); err != nil {
		t.Fatal(err)
	}
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
	recs, err := db2.Solutions("plate")
	if err != nil {
		t.Fatal(err)
	}
	// Alice's solve, the hand-appended record, then bob's solve — the
	// sequence resumed past the recovered ones instead of colliding.
	if len(recs) != 3 {
		t.Fatalf("solution history after reopen = %+v", recs)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Seq >= recs[i].Seq {
			t.Fatalf("sequence did not resume: %+v", recs)
		}
	}
}

// TestDatabaseDeleteClearsSolutions pins Delete's batch semantics: the
// model and its whole solution history vanish atomically.
func TestDatabaseDeleteClearsSolutions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fem2.db")
	db, st := openFileDB(t, path)
	defer st.Close()
	s := NewSession("alice", db)
	mustExec(t, s, "generate bar rod 4 10")
	mustExec(t, s, "store rod")
	if err := db.AppendSolution(SolutionRecord{Model: "rod", Set: "l"}); err != nil {
		t.Fatal(err)
	}
	if !db.Delete("rod") {
		t.Fatal("Delete(rod) = false, want true")
	}
	if _, _, err := db.Retrieve("rod"); !errors.Is(err, errs.ErrNotFound) {
		t.Errorf("Retrieve after delete = %v, want not-found", err)
	}
	if recs, _ := db.Solutions("rod"); len(recs) != 0 {
		t.Errorf("solutions after delete = %+v, want none", recs)
	}
}

// TestSolveRecordsHistory pins the session → database history hook: a
// successful solve appends one solution record.
func TestSolveRecordsHistory(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "generate grid g 4 3 4 3 clamp-left")
	mustExec(t, s, "load g tip endload 0 -100")
	mustExec(t, s, "solve g tip method cg precond jacobi")
	recs, err := s.DB.Solutions("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("history = %+v, want one record", recs)
	}
	r := recs[0]
	if r.Model != "g" || r.Set != "tip" || r.Backend != "cg" || r.Precond != "jacobi" ||
		r.Iterations <= 0 || r.MaxDisp == 0 {
		t.Errorf("solution record = %+v", r)
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

// TestCodecMatchesEncodingJSON is the seeded differential for the
// solve-history record: random field values (see codectest.Fill) are stored
// as the bytes json.Marshal — the encoder the plan codec replaced — writes,
// or refused with its text.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	failed := 0
	for i := 0; i < 3000; i++ {
		var rec SolutionRecord
		codectest.Fill(rng, reflect.ValueOf(&rec).Elem())
		db := NewDatabase()
		err := db.AppendSolution(rec)
		rec.Seq = 1
		want, werr := json.Marshal(rec)
		if err != nil || werr != nil {
			failed++
			if err == nil || werr == nil || err.Error() != "auvm: encode solution record: "+werr.Error() {
				t.Fatalf("%+v: AppendSolution %v, json.Marshal %v", rec, err, werr)
			}
			continue
		}
		if got, err := db.st.Get(store.SolutionKey(rec.Model, 1)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%+v:\nstored %s (%v)\n  json %s", rec, got, err, want)
		}
	}
	if failed < 100 {
		t.Errorf("%d records failed to encode: the generator no longer covers the refusals", failed)
	}
}
